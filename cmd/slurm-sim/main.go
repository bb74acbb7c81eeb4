// slurm-sim runs data-driven workflows through the workflow-aware
// scheduler on a simulated cluster, printing the scheduler event log
// and per-job accounting. Batch scripts with #NORNS directives are read
// from the command line; each script's compute phase is modeled as
// compute seconds plus I/O volume given via flags on the script name:
//
//	slurm-sim -nodes 8 \
//	    'producer.sh:compute=64,write=nvme0://inter:100e9' \
//	    'consumer.sh:compute=30,read=nvme0://inter'
//
// Without arguments it runs the built-in workflow selected by -run
// (default tab3, the Table III producer/consumer pair). An unknown
// -run selector exits non-zero with usage. -json renders the job
// accounting through the shared metrics.Report schema (the same
// envelope norns-bench and norns-lab emit), so CI artifacts are
// uniform across commands.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/ngioproject/norns-go/internal/metrics"
	"github.com/ngioproject/norns-go/internal/sim"
	"github.com/ngioproject/norns-go/internal/simnet"
	"github.com/ngioproject/norns-go/internal/simstore"
	"github.com/ngioproject/norns-go/internal/slurm"
	"github.com/ngioproject/norns-go/internal/workload"
)

// builtins maps -run selectors to built-in workflow submitters.
var builtins = map[string]func(*slurm.Controller) ([]slurm.JobID, error){
	"tab3":     submitTab3,
	"openfoam": submitOpenFOAM,
}

func usageExit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slurm-sim: "+format+"\n", args...)
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "built-in workflows for -run: %s\n", strings.Join(names, ", "))
	flag.Usage()
	os.Exit(2)
}

func main() {
	nodes := flag.Int("nodes", 4, "cluster size")
	dataAware := flag.Bool("data-aware", true, "prefer nodes already holding workflow data")
	run := flag.String("run", "tab3", "built-in workflow to run when no scripts are given: tab3 (producer/consumer), openfoam")
	asJSON := flag.Bool("json", false, "emit the job accounting as a metrics.Report JSON document")
	note := flag.String("note", "", "free-form annotation stored in the -json envelope")
	flag.Parse()

	builtin, ok := builtins[strings.TrimSpace(*run)]
	if !ok {
		usageExit("unknown -run selector %q", *run)
	}
	if flag.NArg() > 0 && *run != "tab3" {
		usageExit("-run selects a built-in workflow and cannot be combined with script arguments")
	}

	eng := sim.NewEngine()
	env := slurm.NewSimEnv(eng)
	env.AddTier("lustre://", simstore.NewPFS(eng, simstore.PFSConfig{
		Name: "lustre", ReadBW: 2.27e9, WriteBW: 3.125e9, Stripes: 6, ClientCap: 0.35e9,
	}))
	env.AddTier("nvme0://", simstore.NewNodeLocal(eng, simstore.NodeLocalConfig{
		Name: "dcpmm", ReadBW: 62e9, WriteBW: 50e9,
	}))
	env.Fabric = simnet.NewFabric(eng, 0.94e9, 0, 0.0009)

	names := make([]string, *nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i+1)
	}
	ctl, err := slurm.NewController(env, slurm.Config{
		Nodes: names, DataAware: *dataAware, PriorityBoost: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	var jobIDs []slurm.JobID
	if flag.NArg() == 0 {
		jobIDs, err = builtin(ctl)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var prev slurm.JobID
		for i, arg := range flag.Args() {
			spec, err := parseJobArg(arg)
			if err != nil {
				usageExit("%v", err)
			}
			if i == 0 {
				spec.WorkflowStart = true
			} else {
				spec.Dependencies = []slurm.JobID{prev}
			}
			if i == flag.NArg()-1 {
				spec.WorkflowEnd = true
			}
			id, err := ctl.Submit(spec)
			if err != nil {
				log.Fatal(err)
			}
			prev = id
			jobIDs = append(jobIDs, id)
		}
	}

	eng.Run()

	table, err := ctl.AccountingTable(jobIDs)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		rep := metrics.NewReport(*note)
		rep.Add(table)
		if err := rep.Encode(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println("=== scheduler event log ===")
	for _, ev := range ctl.Events() {
		fmt.Println(ev)
	}
	fmt.Println()
	fmt.Println(table)
}

// submitTab3 submits the Table III producer/consumer workflow on NVM.
func submitTab3(ctl *slurm.Controller) ([]slurm.JobID, error) {
	prod, err := ctl.Submit(&slurm.JobSpec{
		Name: "producer", Nodes: 1, WorkflowStart: true,
		Payload: workload.Seq{
			workload.Compute{Seconds: 64},
			workload.IO{Dataspace: "nvme0://", Ref: "inter", Bytes: 100e9, Write: true, Procs: 24},
		},
		Persists: []slurm.PersistDirective{{Op: slurm.PersistStore, Location: "nvme0://inter"}},
	})
	if err != nil {
		return nil, err
	}
	cons, err := ctl.Submit(&slurm.JobSpec{
		Name: "consumer", Nodes: 1, WorkflowEnd: true, Dependencies: []slurm.JobID{prod},
		Payload: workload.Seq{
			workload.IO{Dataspace: "nvme0://", Ref: "inter", Procs: 24},
			workload.Compute{Seconds: 30},
		},
	})
	if err != nil {
		return nil, err
	}
	return []slurm.JobID{prod, cons}, nil
}

// submitOpenFOAM submits the Table V decompose/solve workflow: a serial
// mesh decomposition feeding a parallel solver phase.
func submitOpenFOAM(ctl *slurm.Controller) ([]slurm.JobID, error) {
	dec, err := ctl.Submit(&slurm.JobSpec{
		Name: "decompose", Nodes: 1, WorkflowStart: true,
		Payload: workload.OpenFOAMDecompose(120, "nvme0://", 8e9),
		Persists: []slurm.PersistDirective{
			{Op: slurm.PersistStore, Location: "nvme0://mesh"},
		},
	})
	if err != nil {
		return nil, err
	}
	sol, err := ctl.Submit(&slurm.JobSpec{
		Name: "solver", Nodes: 4, WorkflowEnd: true, Dependencies: []slurm.JobID{dec},
		Payload: workload.OpenFOAMSolver(600, "nvme0://", 8e9, 24e9),
	})
	if err != nil {
		return nil, err
	}
	return []slurm.JobID{dec, sol}, nil
}

// parseJobArg parses "script.sh:compute=64,write=nvme0://x:100e9,read=..."
// into a JobSpec: the script file supplies #SBATCH/#NORNS directives and
// the suffix describes the modeled workload.
func parseJobArg(arg string) (*slurm.JobSpec, error) {
	path, desc, _ := strings.Cut(arg, ":")
	script, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	spec, err := slurm.ParseScript(string(script))
	if err != nil {
		return nil, err
	}
	if spec.Name == "" {
		spec.Name = path
	}
	var seq workload.Seq
	for _, item := range strings.Split(desc, ",") {
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("malformed workload item %q", item)
		}
		switch key {
		case "compute":
			sec, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("compute=%q: %w", val, err)
			}
			seq = append(seq, workload.Compute{Seconds: sec})
		case "write", "read":
			ref := val
			var bytes float64
			if i := strings.LastIndex(val, ":"); i > strings.Index(val, "://")+2 {
				b, err := strconv.ParseFloat(val[i+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("volume in %q: %w", val, err)
				}
				bytes = b
				ref = val[:i]
			}
			ds, rel := slurm.SplitRef(ref)
			io := workload.IO{Dataspace: ds, Ref: rel, Bytes: bytes, Write: key == "write", Procs: 24}
			seq = append(seq, io)
		default:
			return nil, fmt.Errorf("unknown workload key %q", key)
		}
	}
	spec.Payload = seq
	return spec, nil
}
