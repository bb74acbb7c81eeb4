package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one traffic mix: how to build its daemons and inputs,
// and which latency percentile is its tail.
type workload struct {
	name string
	// tailPct is the latency percentile reported as the tail, chosen so
	// a run of the default length leaves at least minBeyond samples
	// beyond it.
	tailPct float64
	// bytesPerTask is the source size of every task (0 for NoOp); all
	// copies in one workload move equal-sized files, so goodput and
	// CPU per GiB follow from the per-task figures.
	bytesPerTask int64
	// setupReps is how many times a run builds the system; setup_s is
	// the median CPU time of a build, and all but the last build are
	// torn down. Building control-noop's daemon takes a millisecond, so
	// it needs more repetitions for a steady median.
	setupReps int
	setup     func(dir string, seed uint64) (bench, error)
}

var workloads = []workload{
	{name: "control-noop", tailPct: 99, setupReps: 101, setup: setupNoop},
	{name: "stagein-cold", tailPct: 90, bytesPerTask: fileSize, setupReps: 3, setup: setupStageInCold},
	{name: "workflow-warm", tailPct: 90, bytesPerTask: fileSize, setupReps: 3, setup: setupWorkflowWarm},
}

// bench is a workload's running system: daemons, inputs and the
// clients that load them.
type bench interface {
	// clients returns the closed-loop load generators, one per client
	// connection.
	clients() []loadFunc
	// counters reads the daemons' public gauges; called outside the
	// measured window.
	counters() (counters, error)
	// pendingTasks samples the initiating daemon's queue depth.
	pendingTasks() int
	// settle flushes the inputs the benchmark generated to disk, so
	// their writeback does not land inside a measured window. It is not
	// part of set-up time: the program under test does not do it.
	settle() error
	// verify runs the post-window output checks.
	verify() []string
	close()
}

// loadFunc runs one client's closed loop until ctx is cancelled,
// finishing the operation in flight before it returns.
type loadFunc func(ctx context.Context, win *window, st *clientStats, tr *tracer)

// counters are the daemon gauges read at the window boundaries.
type counters struct {
	statusPolls    uint64
	cacheHits      uint64
	cacheMisses    uint64
	cacheEvictions uint64
	breakerTrips   uint64
}

// windowSlices is how many equal slices the measured window is cut
// into. Rates and per-task costs are the median over slices, so a stall
// from a neighbour on a shared machine moves one slice, not the figure.
const windowSlices = 10

// window is the measured interval. Clients keep running across it and
// report each task's lifetime to it.
type window struct {
	from  atomic.Int64 // Unix ns; 0 until the window opens
	slice atomic.Int64 // slice length, ns
}

func (w *window) open(from time.Time, slice time.Duration) {
	w.slice.Store(int64(slice))
	w.from.Store(from.UnixNano())
}

// sliceOf is the index of the slice holding t, or -1 outside the
// window.
func (w *window) sliceOf(t time.Time) int {
	from := w.from.Load()
	if from == 0 || t.UnixNano() < from {
		return -1
	}
	k := int((t.UnixNano() - from) / w.slice.Load())
	if k >= windowSlices {
		return -1
	}
	return k
}

// credit adds to st, per slice, the share of the task lifetime
// [start, end) that falls in it. A task inside one slice counts 1 there;
// one that straddles a boundary is split, so slice rates are not
// quantized to whole tasks when tasks are long.
func (w *window) credit(st *clientStats, start, end time.Time) {
	from := w.from.Load()
	if from == 0 {
		return
	}
	a, b := start.UnixNano(), max(end.UnixNano(), start.UnixNano()+1)
	sl := w.slice.Load()
	for k := range st.credit {
		lo, hi := from+int64(k)*sl, from+int64(k+1)*sl
		if ov := min(b, hi) - max(a, lo); ov > 0 {
			st.credit[k] += float64(ov) / float64(b-a)
		}
	}
}

// clientStats is one client's record of its operations.
type clientStats struct {
	attempted int64 // tasks submitted over the whole load period
	failed    int64 // refused, ended other than Finished, or timed out

	// Inside the window only: credit per slice, and the tasks that
	// ended inside with their outcomes.
	credit       [windowSlices]float64
	tasks        int64
	gatewayTasks int64
	fabricBytes  int64
	cacheBytes   int64
	retries      int64
	lat          [windowSlices]sample // ms, submit-call start to terminal, by slice of the end
	taskMiBs     sample               // per-copy MiB/s

	problems []string
}

// refused reports a submission the daemon turned away under load
// (EAgain or EUnavailable, which HTTP 429 and 503 map to): a failure
// to count, not an output error.
func refused(err error) bool {
	return errors.Is(err, apierr.ErrAgain) || errors.Is(err, apierr.ErrUnavailable)
}

// maxProblems bounds how many check failures a client keeps verbatim.
const maxProblems = 8

func (s *clientStats) problem(format string, args ...any) {
	if len(s.problems) < maxProblems {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

const (
	// warmup lets connections, pools and lazy state settle before the
	// window opens.
	warmup = time.Second
	// waitTimeout bounds how long a client waits for one task; a task
	// that misses it counts as failed.
	waitTimeout = 60 * time.Second
)

// windowResult is what one measured window produced.
type windowResult struct {
	d        time.Duration
	st       clientStats
	proc     procDelta // whole window
	slices   [windowSlices]procDelta
	c0, c1   counters
	spans    []span
	pending  summary
	heapPeak uint64
	heldPeak [windowSlices]uint64
	// lat is each slice's latencies, pooled all of them.
	lat    [windowSlices]summary
	pooled summary
	// rssPeakMiB is the process peak up to the end of the window, read
	// before the clients' samples are merged.
	rssPeakMiB float64
}

// measure starts the clients, waits out the warm-up, measures one
// window of length d, stops the clients and waits for them.
func measure(b bench, d time.Duration, tr *tracer) (*windowResult, error) {
	var win window
	loads := b.clients()
	stats := make([]clientStats, len(loads))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, load := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			load(ctx, &win, &stats[i], tr)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	time.Sleep(warmup)
	c0, err := b.counters()
	if err != nil {
		stop()
		return nil, err
	}
	var queue func() int
	if tr != nil {
		queue = b.pendingTasks
	}
	smp := startSampler(5*time.Millisecond, &win, queue)
	runtime.GC()
	var snaps [windowSlices + 1]procSnap
	snaps[0] = takeSnap()
	slice := d / windowSlices
	win.open(snaps[0].at, slice)
	for k := 1; k <= windowSlices; k++ {
		time.Sleep(time.Until(snaps[0].at.Add(time.Duration(k) * slice)))
		snaps[k] = takeSnap()
	}
	smp.finish()
	stop()
	rss := rssPeakMiB()
	c1, err := b.counters()
	if err != nil {
		return nil, err
	}
	r := &windowResult{
		d: d, proc: snaps[windowSlices].since(snaps[0]), c0: c0, c1: c1, spans: tr.snapshot(),
		rssPeakMiB: rss, pending: smp.pending.summary(), heapPeak: smp.heapPeak,
	}
	for k := range r.slices {
		r.slices[k] = snaps[k+1].since(snaps[k])
		r.heldPeak[k] = smp.heldPeak[k]
	}
	for i := range stats {
		s := &stats[i]
		r.st.attempted += s.attempted
		r.st.failed += s.failed
		for k := range s.credit {
			r.st.credit[k] += s.credit[k]
		}
		r.st.tasks += s.tasks
		r.st.gatewayTasks += s.gatewayTasks
		r.st.fabricBytes += s.fabricBytes
		r.st.cacheBytes += s.cacheBytes
		r.st.retries += s.retries
		for k := range s.lat {
			r.st.lat[k].merge(&s.lat[k])
		}
		r.st.taskMiBs.merge(&s.taskMiBs)
		r.st.problems = append(r.st.problems, s.problems...)
	}
	var pooled sample
	for k := range r.st.lat {
		r.lat[k] = r.st.lat[k].summary()
		pooled.merge(&r.st.lat[k])
	}
	r.pooled = pooled.summary()
	r.st.lat = [windowSlices]sample{} // the summaries hold sorted copies
	return r, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: control-noop, stagein-cold or workflow-warm")
	seed := fs.Uint64("seed", 1, "workload seed: file contents, task order and interleave derive from it")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for daemon state, inputs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (control-noop, stagein-cold, workflow-warm), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	base, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, base)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.correct {
		return 1
	}
	return 0
}

// execute builds the workload's system w.setupReps times, measures it,
// and checks its outputs.
func execute(w *workload, seed uint64, d time.Duration, traced bool, base string) (*result, error) {
	dir := filepath.Join(base, fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Socket paths are relative to the work directory: an absolute
	// path under a deep checkout can exceed the AF_UNIX path limit.
	if err := os.Chdir(dir); err != nil {
		return nil, err
	}

	var setupCPU, setupWall sample
	var b bench
	for i := 0; i < w.setupReps; i++ {
		sub := fmt.Sprintf("s%d", i)
		t0, c0 := time.Now(), processCPU()
		var err error
		b, err = w.setup(sub, seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupCPU.add((processCPU() - c0).Seconds())
		setupWall.add(time.Since(t0).Seconds())
		if i < w.setupReps-1 {
			b.close()
			if err := os.RemoveAll(sub); err != nil {
				return nil, err
			}
		}
	}
	defer b.close()
	if err := b.settle(); err != nil {
		return nil, err
	}

	res := &result{w: w, seed: seed, setupS: setupCPU.summary().pct(50), setupWallS: setupWall.summary().pct(50)}
	var err error
	if res.plain, err = measure(b, d, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		// A traced window of the same length follows the untraced one;
		// their throughputs give trace_overhead.
		tr := newTracer()
		if res.traced, err = measure(b, d, tr); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		if res.replays, err = runReplays("replays"); err != nil {
			return nil, fmt.Errorf("%s replays: %w", w.name, err)
		}
		res.spanFile = filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(res.spanFile, res.traced.spans); err != nil {
			return nil, err
		}
	}
	res.problems = append(res.problems, res.plain.st.problems...)
	if res.traced != nil {
		res.problems = append(res.problems, res.traced.st.problems...)
	}
	res.problems = append(res.problems, b.verify()...)
	res.correct = len(res.problems) == 0
	return res, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// result is everything one run reports.
type result struct {
	w        *workload
	seed     uint64
	correct  bool
	problems []string
	// setupS and setupWallS are the median CPU and wall time of one
	// set-up.
	setupS, setupWallS float64
	plain              *windowResult
	traced             *windowResult
	replays            *replays
	spanFile           string
}

func (r *result) print(out io.Writer) {
	e2e, lines := r.endToEnd()
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	metrics, defs := e2e, endToEnd
	if r.traced != nil {
		metrics, defs = r.perLayer(), perLayer
		for _, m := range perLayer {
			fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, metrics[m.name], m.unit)
		}
		for _, l := range r.replays.logs {
			fmt.Fprintln(out, l)
		}
		fmt.Fprintf(out, "spans written to %s\n", r.spanFile)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out2 := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]value{}}
	for _, m := range defs {
		out2.Metrics[m.name] = value{metrics[m.name], m.unit}
	}
	line, err := json.Marshal(out2)
	if err != nil {
		// Only a NaN or Inf can fail here, which ratio() rules out.
		panic(err)
	}
	fmt.Fprintln(out, string(line))
}

func (r *result) attempted() int64 {
	n := r.plain.st.attempted
	if r.traced != nil {
		n += r.traced.st.attempted
	}
	return n
}

func (r *result) failed() int64 {
	n := r.plain.st.failed
	if r.traced != nil {
		n += r.traced.st.failed
	}
	return n
}
