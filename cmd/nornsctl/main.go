// nornsctl is the administrative command-line client for a urd daemon:
// what the Slurm extensions call programmatically, exposed for
// operators.
//
// Socket commands (control API over AF_UNIX):
//
//	nornsctl -socket /tmp/nornsctl.sock ping
//	nornsctl status [-json]
//	nornsctl register-dataspace nvme0:// nvm /mnt/pmem0
//	nornsctl unregister-dataspace nvme0://
//	nornsctl register-job 42 node001,node002 nvme0://,lustre://
//	nornsctl unregister-job 42
//	nornsctl track nvme0:// on|off
//	nornsctl tracked-non-empty
//	nornsctl cancel 17
//	nornsctl task-status 17 [-json]
//	nornsctl watch 17
//	nornsctl health
//	nornsctl deadletter list
//	nornsctl deadletter requeue [TASK-ID]
//	nornsctl shutdown
//
// HTTP gateway commands (require -http and a bearer token):
//
//	nornsctl -http http://HOST:PORT -token-file F export [-state pending] [-o FILE]
//	nornsctl -http http://HOST:PORT -token-file F import [-dry-run] [-atomic] [-dedupe MODE] [FILE]
//	nornsctl -http http://HOST:PORT -token-file F drain -to http://HOST2:PORT2 [-to-token-file F2]
//	nornsctl -http http://HOST:PORT -token-file F events [-ids 1,2,3] [-progress-ms N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/gateway"
	"github.com/ngioproject/norns-go/internal/gateway/auth"
	"github.com/ngioproject/norns-go/internal/metrics"
	"github.com/ngioproject/norns-go/internal/task"
)

var backendNames = map[string]uint32{
	"posix-dir":    nornsctl.BackendPosixDir,
	"nvm":          nornsctl.BackendNVM,
	"parallel-fs":  nornsctl.BackendParallelFS,
	"burst-buffer": nornsctl.BackendBurstBuffer,
	"memory":       nornsctl.BackendMemory,
}

// mib renders a byte count in MiB with one decimal.
func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }

// progressLine renders one watch snapshot.
func progressLine(id uint64, st nornsctl.Stats) string {
	line := fmt.Sprintf("task %d: %s %s/%s", id, st.Status, mib(st.MovedBytes), mib(st.TotalBytes))
	if st.SegmentsTotal > 0 {
		line += fmt.Sprintf(" segments %d/%d", st.SegmentsDone, st.SegmentsTotal)
	}
	if st.BandwidthBps > 0 {
		line += fmt.Sprintf(" %.1f MiB/s", st.BandwidthBps/(1<<20))
	}
	return line
}

// statusReport wraps the structured daemon status in the repo's
// machine-readable table envelope (the same shape norns-bench -json
// emits), so `nornsctl status -json` diffs and scripts like any other
// report artifact.
func statusReport(st nornsctl.DaemonStatus) *metrics.Report {
	rep := metrics.NewReport("nornsctl status")
	d := metrics.NewTable("daemon", "field", "value")
	d.AddRow("version", st.Version)
	d.AddRow("node", st.Node)
	d.AddRow("policy", st.Policy)
	d.AddRow("shards", st.Shards)
	d.AddRow("pending", st.Pending)
	d.AddRow("tasks", st.Tasks)
	d.AddRow("journal", st.Journal)
	if st.Journal {
		d.AddRow("recovered_pending", st.RecoveredPending)
		d.AddRow("recovered_running", st.RecoveredRunning)
		d.AddRow("recovered_cancelled", st.RecoveredCancelled)
		d.AddRow("recovered_terminal", st.RecoveredTerminal)
	}
	d.AddRow("autotune", st.Autotune)
	d.AddRow("cache_enabled", st.CacheEnabled)
	d.AddRow("degraded", st.Degraded)
	d.AddRow("dead_letter_tasks", st.DeadLetterTasks)
	if st.RetryMax > 0 {
		d.AddRow("retry_max", st.RetryMax)
		d.AddRow("retry_backoff_ms", st.RetryBackoffMS)
	}
	if st.Journal {
		d.AddRow("recovered_clean", st.RecoveredClean)
	}
	rep.Add(d)
	if len(st.Breakers) > 0 {
		t := metrics.NewTable("breakers", "addr", "state", "fails", "trips")
		for _, b := range st.Breakers {
			t.AddRow(b.Addr, b.State, b.Fails, b.Trips)
		}
		rep.Add(t)
	}
	if st.Autotune && len(st.AutotuneRoutes) > 0 {
		t := metrics.NewTable("autotune-routes",
			"in", "out", "kind", "streams", "seg_size", "goodput_bps", "samples", "state")
		for _, r := range st.AutotuneRoutes {
			t.AddRow(r.In, r.Out, r.Kind, r.Streams, r.SegSize, r.GoodputBps, r.Samples, r.State)
		}
		rep.Add(t)
	}
	if st.CacheEnabled {
		t := metrics.NewTable("cache", "field", "value")
		t.AddRow("bytes", st.CacheBytes)
		t.AddRow("cap_bytes", st.CacheCapBytes)
		t.AddRow("hits", st.CacheHits)
		t.AddRow("misses", st.CacheMisses)
		t.AddRow("evictions", st.CacheEvictions)
		rep.Add(t)
	}
	return rep
}

// taskReport is the task-status counterpart of statusReport.
func taskReport(id uint64, st nornsctl.Stats) *metrics.Report {
	rep := metrics.NewReport("nornsctl task-status")
	t := metrics.NewTable("task", "field", "value")
	t.AddRow("task_id", id)
	t.AddRow("status", st.Status.String())
	if st.Err != "" {
		t.AddRow("error", st.Err)
	}
	t.AddRow("total_bytes", st.TotalBytes)
	t.AddRow("moved_bytes", st.MovedBytes)
	t.AddRow("segments_total", st.SegmentsTotal)
	t.AddRow("segments_done", st.SegmentsDone)
	t.AddRow("bandwidth_bps", st.BandwidthBps)
	t.AddRow("cache_bytes", st.CacheBytes)
	t.AddRow("delta_bytes", st.DeltaBytes)
	if st.Attempts > 0 {
		t.AddRow("attempts", st.Attempts)
	}
	rep.Add(t)
	return rep
}

func main() {
	socket := flag.String("socket", "/tmp/nornsctl.sock", "control socket path")
	interval := flag.Duration("interval", 500*time.Millisecond, "redraw interval for the watch command")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (status, task-status, and the HTTP commands)")
	httpBase := flag.String("http", "", "gateway base URL, e.g. http://127.0.0.1:9300 (required for export/import/drain/events)")
	token := flag.String("token", "", "gateway bearer token (prefer -token-file: flags leak into ps output)")
	tokenFile := flag.String("token-file", "", "file holding the gateway bearer token")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: nornsctl [-socket PATH | -http URL -token-file F] COMMAND [ARGS]")
	}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "export", "import", "drain", "events":
		runHTTP(cmd, rest, *httpBase, resolveToken(*token, *tokenFile), *jsonOut)
		return
	}

	// Socket commands dial lazily so the HTTP commands above never need
	// a control socket.
	c, err := nornsctl.Dial(*socket)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *socket, err)
	}
	defer c.Close()

	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("pong")
	case "status":
		// One round trip serves both the text line and the structured
		// report.
		st, err := c.StatusInfo()
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := statusReport(st).Encode(os.Stdout); err != nil {
				log.Fatal(err)
			}
			break
		}
		fmt.Println(st.Info)
		if st.Journal {
			fmt.Printf("journal: enabled; recovered requeued=%d (pending=%d running=%d) cancelled=%d terminal=%d\n",
				st.RecoveredPending+st.RecoveredRunning, st.RecoveredPending, st.RecoveredRunning,
				st.RecoveredCancelled, st.RecoveredTerminal)
		}
		if st.Autotune {
			if len(st.AutotuneRoutes) == 0 {
				fmt.Println("autotune: enabled; no routes observed yet")
			}
			for _, r := range st.AutotuneRoutes {
				fmt.Printf("autotune: %s -> %s (%s): streams=%d seg=%s goodput=%.1f MiB/s samples=%d %s\n",
					r.In, r.Out, r.Kind, r.Streams, mib(r.SegSize), r.GoodputBps/(1<<20), r.Samples, r.State)
			}
		}
		if st.CacheEnabled {
			fmt.Printf("cache: %s/%s hits=%d misses=%d evictions=%d\n",
				mib(st.CacheBytes), mib(st.CacheCapBytes), st.CacheHits, st.CacheMisses, st.CacheEvictions)
		}
		if st.Degraded {
			fmt.Println("journal: DEGRADED (read-only; new submissions shed until the WAL is writable)")
		}
		if st.DeadLetterTasks > 0 {
			fmt.Printf("dead-letter: %d quarantined tasks (nornsctl deadletter list)\n", st.DeadLetterTasks)
		}
		if st.RetryMax > 0 {
			fmt.Printf("retry: max=%d backoff=%dms\n", st.RetryMax, st.RetryBackoffMS)
		}
		for _, b := range st.Breakers {
			fmt.Printf("breaker: %s %s fails=%d trips=%d\n", b.Addr, b.State, b.Fails, b.Trips)
		}
	case "health":
		if err := c.Health(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("ready")
	case "deadletter":
		if len(rest) < 1 {
			log.Fatal("usage: deadletter list | deadletter requeue [TASK-ID]")
		}
		switch rest[0] {
		case "list":
			entries, err := c.DeadLetterList()
			if err != nil {
				log.Fatal(err)
			}
			if *jsonOut {
				rep := metrics.NewReport("nornsctl deadletter list")
				t := metrics.NewTable("deadletter", "task_id", "attempts", "error")
				for _, e := range entries {
					t.AddRow(e.TaskID, e.Attempts, e.Err)
				}
				rep.Add(t)
				if err := rep.Encode(os.Stdout); err != nil {
					log.Fatal(err)
				}
				break
			}
			if len(entries) == 0 {
				fmt.Println("dead-letter set is empty")
				break
			}
			for _, e := range entries {
				fmt.Printf("task %d: attempts=%d err=%q\n", e.TaskID, e.Attempts, e.Err)
			}
		case "requeue":
			var id uint64
			if len(rest) >= 2 {
				var err error
				id, err = strconv.ParseUint(rest[1], 10, 64)
				if err != nil {
					log.Fatalf("task ID %q: %v", rest[1], err)
				}
			}
			ids, err := c.DeadLetterRequeue(id)
			if err != nil {
				log.Fatal(err)
			}
			if len(ids) == 0 {
				fmt.Println("nothing to requeue")
				break
			}
			for _, nid := range ids {
				fmt.Printf("requeued as task %d\n", nid)
			}
		default:
			log.Fatalf("unknown deadletter subcommand %q (want list|requeue)", rest[0])
		}
	case "shutdown":
		if err := c.Shutdown(); err != nil {
			log.Fatal(err)
		}
	case "register-dataspace":
		if len(rest) < 2 {
			log.Fatal("usage: register-dataspace ID BACKEND [MOUNT]")
		}
		backend, ok := backendNames[rest[1]]
		if !ok {
			log.Fatalf("unknown backend %q (want posix-dir|nvm|parallel-fs|burst-buffer|memory)", rest[1])
		}
		def := nornsctl.DataspaceDef{ID: rest[0], Backend: backend}
		if len(rest) >= 3 {
			def.Mount = rest[2]
		}
		if err := c.RegisterDataspace(def); err != nil {
			log.Fatal(err)
		}
	case "unregister-dataspace":
		if len(rest) < 1 {
			log.Fatal("usage: unregister-dataspace ID")
		}
		if err := c.UnregisterDataspace(rest[0]); err != nil {
			log.Fatal(err)
		}
	case "register-job":
		if len(rest) < 3 {
			log.Fatal("usage: register-job ID HOST1,HOST2 DS1,DS2")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			log.Fatalf("job ID %q: %v", rest[0], err)
		}
		def := nornsctl.JobDef{ID: id, Hosts: strings.Split(rest[1], ",")}
		for _, ds := range strings.Split(rest[2], ",") {
			def.Limits = append(def.Limits, nornsctl.JobLimit{Dataspace: ds})
		}
		if err := c.RegisterJob(def); err != nil {
			log.Fatal(err)
		}
	case "unregister-job":
		if len(rest) < 1 {
			log.Fatal("usage: unregister-job ID")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			log.Fatalf("job ID %q: %v", rest[0], err)
		}
		if err := c.UnregisterJob(id); err != nil {
			log.Fatal(err)
		}
	case "track":
		if len(rest) < 2 {
			log.Fatal("usage: track ID on|off")
		}
		if err := c.TrackDataspace(rest[0], rest[1] == "on"); err != nil {
			log.Fatal(err)
		}
	case "tracked-non-empty":
		ids, err := c.TrackedNonEmpty()
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ids {
			fmt.Println(id)
		}
	case "cancel":
		if len(rest) < 1 {
			log.Fatal("usage: cancel TASK-ID")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			log.Fatalf("task ID %q: %v", rest[0], err)
		}
		st, err := c.Cancel(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("task %d: %s (%d/%d bytes)\n", id, st.Status, st.MovedBytes, st.TotalBytes)
	case "task-status":
		if len(rest) < 1 {
			log.Fatal("usage: task-status TASK-ID")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			log.Fatalf("task ID %q: %v", rest[0], err)
		}
		st, err := c.TaskStatus(id)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := taskReport(id, st).Encode(os.Stdout); err != nil {
				log.Fatal(err)
			}
			break
		}
		fmt.Printf("task %d: %s (%d/%d bytes)", id, st.Status, st.MovedBytes, st.TotalBytes)
		if st.SegmentsTotal > 0 {
			fmt.Printf(" segments %d/%d", st.SegmentsDone, st.SegmentsTotal)
		}
		if st.CacheBytes > 0 || st.DeltaBytes > 0 {
			fmt.Printf(" cached=%d delta-skipped=%d", st.CacheBytes, st.DeltaBytes)
		}
		if st.Err != "" {
			fmt.Printf(" err=%q", st.Err)
		}
		fmt.Println()
	case "watch":
		// Live progress: follow the task's pushed events and redraw one
		// line at most every -interval until the task terminates.
		if len(rest) < 1 {
			log.Fatal("usage: watch TASK-ID")
		}
		id, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			log.Fatalf("task ID %q: %v", rest[0], err)
		}
		st, err := c.Watch(id, *interval, func(st nornsctl.Stats) {
			fmt.Printf("\r\x1b[K%s", progressLine(id, st))
		})
		if err != nil {
			fmt.Println()
			log.Fatal(err)
		}
		fmt.Println()
		if st.Status == task.Failed {
			log.Fatalf("task %d failed: %s", id, st.Err)
		}
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// resolveToken loads the bearer secret from -token or -token-file.
// Empty when neither is set; the HTTP commands fail fast on that.
func resolveToken(token, tokenFile string) string {
	if token != "" {
		return token
	}
	if tokenFile == "" {
		return ""
	}
	t, err := auth.LoadFile(tokenFile)
	if err != nil {
		log.Fatalf("nornsctl: %v", err)
	}
	return t.Secret()
}

// runHTTP dispatches the gateway commands. They never touch the control
// socket.
func runHTTP(cmd string, rest []string, base, token string, jsonOut bool) {
	if base == "" {
		log.Fatalf("%s requires -http URL", cmd)
	}
	if token == "" {
		log.Fatalf("%s requires a bearer token (-token-file or -token)", cmd)
	}
	client := &gateway.Client{Base: base, Token: token}
	// SIGINT cancels in-flight streams cleanly (SSE watches especially).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch cmd {
	case "export":
		fs := flag.NewFlagSet("export", flag.ExitOnError)
		state := fs.String("state", "", "status filter: pending|running|terminal|... (empty = all)")
		out := fs.String("o", "", "output file (empty = stdout)")
		fs.Parse(rest)
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		n, err := client.Export(ctx, w, *state)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "exported %d tasks\n", n)
	case "import":
		fs := flag.NewFlagSet("import", flag.ExitOnError)
		dryRun := fs.Bool("dry-run", false, "validate every record, submit nothing")
		atomic := fs.Bool("atomic", false, "all-or-nothing: any bad record aborts the whole batch")
		dedupe := fs.String("dedupe", "", "duplicate-ID handling: skip|overwrite|error (empty = server default skip)")
		ids := fs.Bool("ids", false, "echo assigned task IDs")
		fs.Parse(rest)
		r := io.Reader(os.Stdin)
		if fs.NArg() > 0 {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			r = f
		}
		res, err := client.Import(ctx, r, gateway.ImportOptions{
			DryRun: *dryRun, Atomic: *atomic, Dedupe: *dedupe, IncludeIDs: *ids,
		})
		if err != nil {
			if res != nil {
				printImportResult(res, jsonOut)
			}
			log.Fatal(err)
		}
		printImportResult(res, jsonOut)
		if res.Failed > 0 {
			os.Exit(1)
		}
	case "drain":
		fs := flag.NewFlagSet("drain", flag.ExitOnError)
		to := fs.String("to", "", "destination gateway base URL (required)")
		toToken := fs.String("to-token", "", "destination bearer token (empty = same as source)")
		toTokenFile := fs.String("to-token-file", "", "file holding the destination bearer token")
		fs.Parse(rest)
		if *to == "" {
			log.Fatal("usage: drain -to http://HOST:PORT [-to-token-file F]")
		}
		dstToken := resolveToken(*toToken, *toTokenFile)
		if dstToken == "" {
			dstToken = token
		}
		dst := &gateway.Client{Base: *to, Token: dstToken}
		res, err := client.Drain(ctx, dst)
		if err != nil {
			log.Fatal(err)
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(res)
			return
		}
		fmt.Printf("drained %d tasks (%s) -> %s: imported=%d cancelled-at-source=%d\n",
			res.Tasks, mib(res.Bytes), *to, res.Imported, res.Cancelled)
	case "events":
		fs := flag.NewFlagSet("events", flag.ExitOnError)
		idsCSV := fs.String("ids", "", "comma-separated task IDs; the stream ends once all are terminal (empty = all tasks, stream until interrupted)")
		progressMS := fs.Int64("progress-ms", 0, "request throttled progress ticks at this interval")
		fs.Parse(rest)
		var ids []uint64
		if *idsCSV != "" {
			for _, f := range strings.Split(*idsCSV, ",") {
				id, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
				if err != nil {
					log.Fatalf("bad task ID %q", f)
				}
				ids = append(ids, id)
			}
		}
		enc := json.NewEncoder(os.Stdout)
		err := client.Events(ctx, ids, *progressMS, func(ev gateway.SSEEvent) bool {
			switch {
			case ev.Gap:
				fmt.Fprintf(os.Stderr, "gap: %d events dropped\n", ev.Dropped)
			case ev.Kind == "end":
				if !jsonOut {
					fmt.Println("all tasks terminal")
				}
			case jsonOut:
				enc.Encode(struct {
					Kind   string            `json:"kind"`
					TaskID uint64            `json:"task_id"`
					Stats  *gateway.TaskJSON `json:"stats,omitempty"`
				}{ev.Kind, ev.TaskID, ev.Stats})
			default:
				line := fmt.Sprintf("%s task %d", ev.Kind, ev.TaskID)
				if ev.Stats != nil {
					line += ": " + ev.Stats.Status
					if ev.Stats.TotalBytes > 0 {
						line += fmt.Sprintf(" %s/%s", mib(ev.Stats.MovedBytes), mib(ev.Stats.TotalBytes))
					}
					if ev.Stats.Error != "" {
						line += " err=" + strconv.Quote(ev.Stats.Error)
					}
				}
				fmt.Println(line)
			}
			return true
		})
		if err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
	}
}

func printImportResult(res *gateway.ImportResult, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		return
	}
	mode := "imported"
	if res.DryRun {
		mode = "validated (dry run)"
	}
	fmt.Printf("%s %d/%d records: submitted=%d skipped=%d overwritten=%d failed=%d\n",
		mode, res.Submitted, res.Lines, res.Submitted, res.Skipped, res.Overwritten, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "  line %d: %s: %s\n", e.Line, e.Code, e.Message)
	}
}
