package urd

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/cascache"
	"github.com/ngioproject/norns-go/internal/dataspace"
	"github.com/ngioproject/norns-go/internal/gateway"
	"github.com/ngioproject/norns-go/internal/gateway/auth"
	"github.com/ngioproject/norns-go/internal/journal"
	"github.com/ngioproject/norns-go/internal/mercury"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/queue"
	"github.com/ngioproject/norns-go/internal/storage"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transfer"
	"github.com/ngioproject/norns-go/internal/transport"
)

// Version is reported by OpStatus.
const Version = "urd/2.0 (norns-go)"

// Config parameterizes a daemon instance.
type Config struct {
	// NodeName is this compute node's cluster name.
	NodeName string
	// UserSocket and ControlSocket are the AF_UNIX paths for the two
	// permission domains. Empty disables that listener (tests may drive
	// the daemon in-process).
	UserSocket    string
	ControlSocket string
	// Workers sizes each shard's worker pool (<=0 selects 4, matching
	// the prototype's default). Shards are created per dataspace pair,
	// so total worker concurrency scales with the number of distinct
	// transfer routes in flight.
	Workers int
	// Policy arbitrates each shard's task queue (nil selects FCFS). The
	// built-in policies are recognized by name and re-instantiated per
	// shard. Custom policies are stateful and cannot be shared across
	// shard queues, so New rejects a custom Policy without a
	// PolicyFactory instead of silently serving only the first shard.
	Policy queue.Policy
	// PolicyFactory, when set, builds one queue policy per shard and
	// takes precedence over Policy. It is invoked under the daemon lock
	// (plus once during New to learn its name), so it must not block.
	PolicyFactory func() queue.Policy
	// MaxShardQueue bounds each shard's pending queue (<=0: unbounded);
	// submissions beyond it fail with NORNS_EAGAIN.
	MaxShardQueue int
	// MaxInFlight is the global backpressure limit on tasks that are
	// queued or running across all shards (<=0: unbounded); submissions
	// beyond it fail with NORNS_EAGAIN.
	MaxInFlight int
	// Fabric selects the mercury NA plugin for node-to-node transfers
	// ("" disables the network manager).
	Fabric string
	// FabricAddr is the listen address for the fabric ("" = ephemeral).
	FabricAddr string
	// Resolver maps node names to fabric addresses (required with
	// Fabric).
	Resolver NodeResolver
	// BufSize is the copy/throttle chunk size (<=0: 256 KiB).
	// Cancellation and bandwidth limits are observed between chunks, so
	// it bounds cancel latency — the transfer unit itself is SegmentSize.
	BufSize int
	// SegmentSize is the transfer planner's segment unit (<=0: 8 MiB):
	// files are split into segments that move on parallel streams and
	// checkpoint individually in the journal.
	SegmentSize int64
	// TransferStreams is how many segments one task moves concurrently
	// (<=0: 4).
	TransferStreams int
	// MaxBandwidthBps caps the daemon's aggregate transfer bandwidth in
	// bytes per second (<=0: unlimited) — the staging throttle of the
	// paper's interference experiments. Inbound pulls served for peers
	// count against the same budget.
	MaxBandwidthBps int64
	// Autotune enables the per-route transfer autotuner: streams and
	// segment size adapt to each route's observed goodput, starting
	// from the static TransferStreams/SegmentSize configuration (which
	// remains the escape hatch when disabled).
	Autotune bool
	// AutotuneMinSamples is how many transfers the tuner observes at an
	// operating point before scoring it (<=0: 2). Lower converges
	// faster on noisy-free media; higher resists jitter.
	AutotuneMinSamples int
	// DisableOffload forces local staging onto the portable user-space
	// copy path even when the kernel range-copy offload is available.
	// It exists for benchmarking the offload against its fallback and
	// for diagnosing suspected kernel-side copy bugs; leave it off in
	// production.
	DisableOffload bool
	// RPCTimeout bounds each peer RPC and bulk-stream idle gap (<=0:
	// none). A hung peer then fails the transfer instead of wedging a
	// worker forever.
	RPCTimeout time.Duration
	// EventQueue bounds each event subscriber's pending queue (<=0:
	// 256). A subscriber that falls further behind gets its overflow
	// coalesced into one gap event instead of blocking workers;
	// terminal transitions of explicitly subscribed tasks are admitted
	// past the bound so task handles always resolve.
	EventQueue int
	// ProgressInterval is the hub-wide floor between progress-tick
	// events per task (<=0: 100ms), whatever rate subscribers request.
	ProgressInterval time.Duration
	// RetainTasks bounds how many terminal tasks stay in the in-memory
	// task table answering status queries (<=0: 16384; negative values
	// also select the default). Beyond it the oldest terminal tasks are
	// retired — their IDs stop resolving, exactly as after a restart
	// once the journal's own RetainTerminal GC has run. Without the
	// bound a long-lived daemon's task table (and the GC work to scan
	// it) grew without limit — the opposite of "as fast as the hardware
	// allows" under millions of submissions.
	RetainTasks int
	// StateDir, when set, enables the durable task journal: every
	// submission and state transition is appended to a write-ahead log
	// under this directory, and on startup the journal is replayed —
	// dataspaces are restored, tasks that were pending or running at
	// the crash are re-queued (re-running a copy is idempotent), and
	// terminal tasks are resurrected for status queries without being
	// re-run. Empty disables persistence (tasks live in memory only).
	StateDir string
	// JournalOptions tunes the journal (compaction cadence, terminal
	// retention, per-record fsync). The zero value selects the journal
	// package defaults. Ignored without StateDir.
	JournalOptions journal.Options
	// RetryMax is the daemon's default retry budget: a task that fails
	// with a transient transport fault is sent back to Pending and
	// re-executed up to this many times (exponential backoff) before it
	// is quarantined in the dead-letter state. 0 disables automatic
	// retries — the historical fail-on-first-error behavior. A task's
	// own Spec.RetryMax overrides the default.
	RetryMax int
	// RetryBackoff is the base of the exponential retry schedule:
	// attempt N re-queues after roughly RetryBackoff·2^(N-1), jittered
	// ±25% and capped at 30s. <=0 selects 250ms.
	RetryBackoff time.Duration
	// JournalProbeInterval is how often a degraded daemon re-probes its
	// journal for recovery (<=0: 1s). Ignored without StateDir.
	JournalProbeInterval time.Duration
	// BreakerThreshold and BreakerCooldown tune the fabric circuit
	// breakers: BreakerThreshold consecutive transport failures to one
	// endpoint trip its breaker, which re-probes after BreakerCooldown.
	// Zero values select the mercury defaults (5 failures, 1s); a
	// negative threshold disables breaking. Ignored without Fabric.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// CacheDir, when non-empty, enables the content-addressed staging
	// cache rooted at that directory: repeated stage-ins of unchanged
	// segments are served from local disk instead of the fabric, and
	// transfers delta-skip segments the destination already holds.
	// CacheSize bounds the cache footprint in bytes (<=0 selects 1 GiB).
	CacheDir  string
	CacheSize int64
	// Hooks are optional fault-injection points for the scenario lab
	// and tests. The zero value installs nothing; see Hooks.
	Hooks Hooks
	// HTTPAddr, when non-empty, starts the HTTP/JSON gateway on this
	// TCP address (host:port; port 0 picks one — see Daemon.HTTPAddr).
	// The gateway serves the v2 API over JSON, SSE event streaming, and
	// the NDJSON bulk import/export endpoints. HTTPToken is the bearer
	// secret and is mandatory with HTTPAddr: the gateway refuses to
	// serve unauthenticated. HTTPMaxBody clamps JSON request bodies
	// (<=0: 8 MiB); HTTPMaxLine clamps one NDJSON line (<=0: 1 MiB).
	HTTPAddr    string
	HTTPToken   string
	HTTPMaxBody int64
	HTTPMaxLine int
}

// shard is one lane of the dispatcher: all tasks moving data between
// the same (input, output) dataspace pair share a queue and worker set,
// so independent routes never head-of-line-block each other.
type shard struct {
	key string
	q   *queue.Queue
}

// Recovered counts what a journal replay restored at startup.
type Recovered struct {
	// Pending and Running tasks were re-queued (the latter were
	// mid-transfer at the crash and restart from scratch).
	Pending int
	Running int
	// Cancelled tasks were mid-cancellation and recovered straight to
	// their terminal state — the user asked for the abort; a restart
	// does not un-ask it.
	Cancelled int
	// Terminal tasks were already complete and were resurrected so
	// their IDs keep answering status queries. They are never re-run.
	Terminal int
}

// Requeued is the number of tasks the replay put back into the pipeline.
func (r Recovered) Requeued() int { return r.Pending + r.Running }

// Daemon is one urd instance.
type Daemon struct {
	cfg        Config
	Controller *dataspace.Controller
	executor   *transfer.Executor
	net        *NetManager
	newPolicy  func() queue.Policy
	policyName string
	workers    int

	// journal is the durable task log (nil without Config.StateDir);
	// recovered is immutable after New.
	journal   *journal.Journal
	recovered Recovered

	// cache is the content-addressed staging cache (nil without
	// Config.CacheDir); its hit/miss/evict gauges surface in OpStatus.
	cache *cascache.Cache

	// hub fans task lifecycle events out to OpSubscribe subscribers.
	hub *EventHub
	// statusPolls counts OpTaskStatus requests served — the gauge the
	// event-driven API exists to drive to zero (tests assert on it).
	statusPolls atomic.Uint64

	userSrv *transport.Server
	ctlSrv  *transport.Server
	// gw is the HTTP/JSON gateway (nil without Config.HTTPAddr).
	gw *gateway.Server

	// ctx is the root context every worker executes under. Close drains
	// gracefully — in-flight and queued tasks run to completion — and
	// cancels ctx only after the workers exit, as a final release for
	// any bridging goroutines; it is not an abort path. Use Cancel (or
	// task deadlines) to bound individual transfers.
	ctx  context.Context
	stop context.CancelFunc

	// tasks is the lock-striped task table: lookups (OpTaskStatus, the
	// event hub's subscribe snapshots, cancel authorization) take one
	// stripe's read lock and never contend with submissions or worker
	// completions on other stripes. The scalar state that used to share
	// the daemon's single mutex is atomic: nextID allocates IDs with one
	// fetch-add, inFlight is the global backpressure gauge (admission
	// CASes it so MaxInFlight is never overshot), and closed gates
	// submission without a lock.
	tasks    *taskRegistry
	nextID   atomic.Uint64
	inFlight atomic.Int64 // tasks queued or running
	closed   atomic.Bool

	// degraded marks journal degrade mode: the WAL hit a write error,
	// so new submissions are shed with NORNS_EUNAVAILABLE (retryable)
	// while already-admitted tasks run to their terminal states. The
	// probe loop re-tests the journal and lifts the flag if it heals.
	degraded atomic.Bool
	// draining marks a graceful Shutdown: workers stop picking up
	// queued tasks (they stay journaled Pending for the next daemon)
	// while running transfers finish. drainAbandon is set when the
	// drain deadline expires — in-flight transfers are then aborted and
	// handed back to Pending with their segment checkpoints instead of
	// being failed.
	draining     atomic.Bool
	drainAbandon atomic.Bool
	// recoveredClean reports that the replayed journal ended with a
	// clean-shutdown marker (immutable after New).
	recoveredClean bool

	// retryMu guards the backoff timers of tasks awaiting re-queue
	// after a transient failure.
	retryMu     sync.Mutex
	retryTimers map[uint64]*time.Timer

	// dlMu guards the dead-letter set: quarantined task IDs an operator
	// has not yet requeued.
	dlMu sync.Mutex
	dl   map[uint64]struct{}

	// Terminal accounting, maintained exactly once per task when its
	// in-flight slot is released (and seeded from the journal for
	// resurrected tasks), so OpTransferStats aggregates without walking
	// the task table.
	doneFinished  atomic.Uint64
	doneFailed    atomic.Uint64
	doneCancelled atomic.Uint64
	doneMoved     atomic.Int64

	// retired is the FIFO ring of terminal task IDs still held in the
	// table; when it wraps, the overwritten ID is evicted from the
	// registry and the hub — the in-memory mirror of the journal's
	// RetainTerminal GC, keeping the live set (and GC scan work)
	// bounded however long the daemon runs.
	retiredMu sync.Mutex
	retired   []uint64
	retiredN  int

	// shardMu guards only the shard map (created lazily per dataspace
	// pair); the queues behind it have their own locks.
	shardMu sync.Mutex
	shards  map[routeKey]*shard

	// done is closed when Close finishes, so a host process can wait
	// for a shutdown requested over the control API (OpShutdown).
	done chan struct{}

	wg sync.WaitGroup
}

// policyFactory resolves the per-shard policy constructor from cfg.
// New has already validated that a factory-less Policy is one of the
// built-ins, so re-instantiating by name is always possible here.
func policyFactory(cfg Config) func() queue.Policy {
	if cfg.PolicyFactory != nil {
		return cfg.PolicyFactory
	}
	if cfg.Policy == nil {
		return func() queue.Policy { return queue.NewFCFS() }
	}
	name := cfg.Policy.Name()
	return func() queue.Policy {
		switch name {
		case "sjf":
			return queue.NewSJF(nil)
		case "priority":
			return queue.NewPriority()
		case "fair-share":
			return queue.NewFairShare()
		default: // "fcfs"
			return queue.NewFCFS()
		}
	}
}

// New builds and starts a daemon: sockets (if configured) listen and the
// fabric (if configured) is live. Shards — and their workers — are
// created lazily as the first task for each dataspace pair arrives.
func New(cfg Config) (*Daemon, error) {
	// Policies are stateful and per-shard: a custom policy instance
	// cannot serve every shard, so it must come with a factory. (The
	// built-ins are re-instantiated by name.)
	if cfg.PolicyFactory == nil && cfg.Policy != nil {
		switch cfg.Policy.Name() {
		case "fcfs", "sjf", "priority", "fair-share":
		default:
			return nil, fmt.Errorf(
				"urd: custom policy %q requires Config.PolicyFactory (each shard needs its own policy instance)",
				cfg.Policy.Name())
		}
	}
	d := &Daemon{
		cfg:        cfg,
		Controller: dataspace.NewController(),
		newPolicy:  policyFactory(cfg),
		shards:     make(map[routeKey]*shard),
		tasks:      newTaskRegistry(),
		done:       make(chan struct{}),
	}
	d.ctx, d.stop = context.WithCancel(context.Background())
	d.workers = cfg.Workers
	if d.workers <= 0 {
		d.workers = 4
	}
	// Name resolution mirrors policyFactory's precedence: PolicyFactory
	// wins over Policy. The probe instance is safe here — the daemon has
	// no concurrency yet — and is discarded.
	switch {
	case cfg.PolicyFactory != nil:
		d.policyName = cfg.PolicyFactory().Name()
	case cfg.Policy != nil:
		d.policyName = cfg.Policy.Name()
	default:
		d.policyName = "fcfs"
	}
	d.hub = NewEventHub(cfg.EventQueue, cfg.ProgressInterval)
	env := &transfer.Env{
		Spaces:         d.Controller.Spaces,
		BufSize:        cfg.BufSize,
		SegmentSize:    cfg.SegmentSize,
		Streams:        cfg.TransferStreams,
		Governor:       transfer.NewGovernor(cfg.MaxBandwidthBps),
		DisableOffload: cfg.DisableOffload,
		// Lifecycle hooks feed the event hub; both are cheap no-ops
		// while nobody is subscribed.
		OnStart:    func(t *task.Task) { d.hub.PublishState(t.ID, t.Stats()) },
		OnProgress: func(t *task.Task) { d.hub.PublishProgress(t) },
	}
	if cfg.Autotune {
		env.Tuner = transfer.NewTuner(cfg.AutotuneMinSamples)
	}
	if cfg.CacheDir != "" {
		size := cfg.CacheSize
		if size <= 0 {
			size = 1 << 30
		}
		c, err := cascache.Open(cfg.CacheDir, size)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("urd: staging cache: %w", err)
		}
		d.cache = c
		env.Cache = c
	}
	if cfg.Fabric != "" {
		if cfg.Resolver == nil {
			d.stop()
			return nil, errors.New("urd: fabric configured without a node resolver")
		}
		nm, err := NewNetManager(cfg.Fabric, cfg.FabricAddr, d.Controller.Spaces, cfg.Resolver)
		if err != nil {
			d.stop()
			return nil, err
		}
		nm.SetRPCTimeout(cfg.RPCTimeout)
		nm.SetTransfer(cfg.TransferStreams, cfg.SegmentSize, env.Governor)
		// Circuit breakers are on by default: one dead peer should cost
		// dial attempts during its cooldown windows, not an RPC timeout
		// per call fleet-wide.
		if thr := cfg.BreakerThreshold; thr >= 0 {
			if thr == 0 {
				thr = mercury.DefaultBreakerThreshold
			}
			nm.SetBreaker(thr, cfg.BreakerCooldown)
		}
		if cfg.Hooks.FabricFault != nil {
			nm.SetFaultHook(cfg.Hooks.FabricFault)
		}
		d.net = nm
		env.Net = nm
	}
	d.executor = transfer.NewExecutor(env)
	d.executor.Decide = d.decideRetry

	// Replay the durable journal before the sockets open: dataspaces are
	// restored first so re-queued tasks find their tiers, and clients
	// connecting after New observe the recovered state, never a window
	// of it.
	if cfg.StateDir != "" {
		j, err := journal.Open(cfg.StateDir, cfg.JournalOptions)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.journal = j
		// Checkpoint each completed segment's bitmap so a crash resumes
		// the transfer from the segments that already landed instead of
		// re-copying whole files. A task without a resumable plan records
		// all-zero fields — the journal-side clear the engine emits when
		// it discards a stale checkpoint (see Env.validateResume).
		env.OnSegment = func(t *task.Task) {
			segSize, planBytes, bits := t.SegmentBitmap()
			if err := j.RecordProgress(t.ID, segSize, planBytes, bits, t.Stats().MovedBytes); err != nil {
				log.Printf("urd: journal: progress %d: %v", t.ID, err)
			}
		}
	}
	// Fault hooks layer over the production wiring (journal checkpoint
	// included), never under it; no-ops when Config.Hooks is zero. They
	// must be in place before the replay below: re-queued tasks start
	// executing as soon as their shard exists, and a worker reading env
	// while hooks were still being installed would race.
	d.installHooks(env)
	if d.journal != nil {
		if err := d.replayJournal(); err != nil {
			d.Close()
			return nil, err
		}
		// The probe loop is the degrade mode's way back: it re-tests a
		// failed journal until the disk heals, then lifts the shed.
		go d.journalProbeLoop()
	}

	if cfg.UserSocket != "" {
		d.userSrv = transport.NewServer(d.Handle, false)
		d.userSrv.SetFastPath(d.fastOp)
		if _, err := d.userSrv.Listen("unix", cfg.UserSocket); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.ControlSocket != "" {
		d.ctlSrv = transport.NewServer(d.Handle, true)
		d.ctlSrv.SetFastPath(d.fastOp)
		if _, err := d.ctlSrv.Listen("unix", cfg.ControlSocket); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.HTTPAddr != "" {
		gw, err := gateway.New(gateway.Config{
			Addr:    cfg.HTTPAddr,
			Daemon:  d,
			Token:   auth.NewToken(cfg.HTTPToken),
			MaxBody: cfg.HTTPMaxBody,
			MaxLine: cfg.HTTPMaxLine,
			Logf:    log.Printf,
		})
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("urd: %w", err)
		}
		d.gw = gw
	}
	return d, nil
}

// HTTPAddr is the gateway's bound listen address (resolving port 0), or
// "" when no gateway is configured.
func (d *Daemon) HTTPAddr() string {
	if d.gw == nil {
		return ""
	}
	return d.gw.Addr()
}

// fastOp marks the requests the transport may handle inline on the
// connection's read loop (no handler goroutine per request). Everything
// the daemon serves is non-blocking except OpWait, which parks until
// the task terminates and would stall the connection's pipeline. The
// ops that append to the journal are inline only when an append is
// cheap: with -journal-flush each append blocks for the window, and
// with -state-sync it blocks for an fsync — inline handling would
// serialize a connection's pipelined submissions at one disk wait each
// instead of coalescing their waits into the same flush.
func (d *Daemon) fastOp(req *proto.Request) bool {
	switch req.Op {
	case proto.OpWait:
		return false
	case proto.OpSubmit, proto.OpSubmitBatch, proto.OpCancel,
		proto.OpRegisterDataspace, proto.OpUpdateDataspace, proto.OpUnregisterDataspace:
		return d.journal == nil ||
			(d.cfg.JournalOptions.FlushInterval == 0 && !d.cfg.JournalOptions.Sync)
	default:
		return true
	}
}

// replayJournal rebuilds the daemon's state from the journal: restore
// dataspaces, resurrect terminal tasks, confirm interrupted
// cancellations, and re-queue everything that was pending or running
// when the previous daemon died. Each non-terminal task is re-queued
// exactly once; the replay ends with a compaction so a second restart
// sees the re-queued tasks as plain pending work.
func (d *Daemon) replayJournal() error {
	j := d.journal
	d.nextID.Store(j.NextID())
	// Snapshot the clean-shutdown marker before this replay appends its
	// own records (any append clears it): a true value attests the
	// previous daemon drained in an orderly fashion, so nothing below
	// needs re-running from scratch.
	d.recoveredClean = j.Clean()

	for _, spec := range j.Dataspaces() {
		b, err := d.backendFromSpec(&spec)
		if err != nil {
			return fmt.Errorf("urd: recovering dataspace %s: %w", spec.ID, err)
		}
		ds, err := d.Controller.Spaces.Register(spec.ID, b)
		if err != nil {
			return fmt.Errorf("urd: recovering dataspace %s: %w", spec.ID, err)
		}
		ds.Track = spec.Track
	}

	for _, tr := range j.Tasks() {
		t := tr.Spec.Task(tr.ID)
		switch {
		case tr.Status.Terminal():
			// Already complete: never re-run, but keep the ID answering
			// status queries — final byte counters included — until
			// compaction retires it.
			st := task.Stats{
				Status: tr.Status, Err: tr.Err, Attempts: tr.Attempts,
				TotalBytes: tr.TotalBytes, MovedBytes: tr.MovedBytes,
				CacheBytes: tr.CacheBytes, DeltaBytes: tr.DeltaBytes,
				SegmentsTotal: tr.SegsTotal, SegmentsDone: tr.SegsDone,
			}
			if err := t.Restore(st); err == nil {
				d.tasks.Put(t)
				d.accountTerminal(st)
				d.retire(tr.ID)
				if tr.Status == task.DeadLetter {
					// Quarantined tasks stay inspectable and requeueable
					// across restarts.
					d.dlAdd(tr.ID)
				}
				d.recovered.Terminal++
			}
		case tr.Status == task.Cancelling:
			// The abort was requested before the crash; a restart does
			// not un-ask it, so confirm instead of re-running.
			st := task.Stats{
				Status:     task.Cancelled,
				TotalBytes: tr.TotalBytes, MovedBytes: tr.MovedBytes,
				CacheBytes: tr.CacheBytes, DeltaBytes: tr.DeltaBytes,
				SegmentsTotal: tr.SegsTotal, SegmentsDone: tr.SegsDone,
			}
			if err := t.Restore(st); err == nil {
				d.tasks.Put(t)
				d.accountTerminal(st)
				d.retire(tr.ID)
				// Journal the confirmation with the preserved counters —
				// the terminal record is sticky, so zeros here would
				// permanently shadow the partial progress.
				d.recordStats(tr.ID, st)
				d.recovered.Cancelled++
			}
		default: // Pending or Running: re-queue, resuming from checkpoints.
			if tr.Attempts > 0 {
				// Resume the retry schedule where the dead daemon left it
				// rather than granting a fresh budget.
				t.RestoreAttempts(tr.Attempts)
			}
			if tr.SegSize > 0 && tr.SegPlan > 0 && len(tr.SegBits) > 0 {
				// The transfer checkpointed segments before the crash; the
				// re-run re-copies only the ones missing from the bitmap
				// (the destination keeps landed segments: OpenWriterAt does
				// not truncate). The plan size travels with the checkpoint
				// so a source that changed size discards it instead.
				t.RestoreSegments(tr.SegSize, tr.SegPlan, tr.SegBits)
			}
			if err := t.Validate(); err != nil {
				// A spec that cannot be re-executed (e.g. written by a
				// newer build) must not wedge the replay.
				msg := "unreplayable journal spec: " + err.Error()
				if t.Restore(task.Stats{Status: task.Failed, Err: msg}) == nil {
					d.tasks.Put(t)
					d.accountTerminal(t.Stats())
					d.record(tr.ID, task.Failed, msg)
				}
				continue
			}
			sh, err := d.shardFor(shardKey(t))
			if err != nil {
				// Unreachable in practice (New has not returned, so Close
				// cannot have run), but fail the task rather than wedge.
				if t.Fail("recovery: "+err.Error()) == nil {
					d.tasks.Put(t)
					d.accountTerminal(t.Stats())
					d.record(tr.ID, task.Failed, "recovery: "+err.Error())
				}
				continue
			}
			d.tasks.Put(t)
			d.inFlight.Add(1)
			// Record the re-queue before the workers can race ahead of
			// it, then enqueue. Recovery deliberately bypasses both the
			// MaxInFlight gate and the per-shard queue bound: these are
			// pre-crash obligations the dead daemon had already
			// admitted, not new load to shed. The pre-crash byte counters
			// ride along so the journal does not forget the progress a
			// checkpoint attests to.
			d.recordStats(tr.ID, task.Stats{
				Status:     task.Pending,
				TotalBytes: tr.TotalBytes,
				MovedBytes: tr.MovedBytes,
				Attempts:   tr.Attempts,
			})
			if err := sh.q.Requeue(t); err != nil {
				msg := "recovery: " + err.Error()
				if t.Fail(msg) == nil {
					d.record(tr.ID, task.Failed, msg)
				}
				// Releases the slot and accounts the failure.
				d.taskDone(t)
				continue
			}
			if tr.Status == task.Running {
				d.recovered.Running++
			} else {
				d.recovered.Pending++
			}
		}
	}
	return j.Compact()
}

// Recovered reports what the startup journal replay restored (zero
// without Config.StateDir). It is fixed once New returns.
func (d *Daemon) Recovered() Recovered { return d.recovered }

// Journal exposes the daemon's durable journal (nil without
// Config.StateDir) for diagnostics and crash-injection tests.
func (d *Daemon) Journal() *journal.Journal { return d.journal }

// noteJournalError flips the daemon into degrade mode when the journal
// reports a sticky write failure: in-flight work keeps running (their
// transitions are best-effort records), but new submissions are shed
// with NORNS_EUNAVAILABLE until the probe loop sees the journal heal.
func (d *Daemon) noteJournalError() {
	if d.journal == nil || d.journal.WriteErr() == nil {
		return
	}
	if !d.degraded.Swap(true) {
		log.Printf("urd: journal degraded, shedding new submissions: %v", d.journal.WriteErr())
	}
}

// record journals a task state transition. Journaling is best-effort at
// this layer: an append failure costs restart fidelity, not correctness
// of the in-memory pipeline, so it is logged rather than propagated.
func (d *Daemon) record(id uint64, s task.Status, errMsg string) {
	if d.journal == nil {
		return
	}
	if err := d.journal.RecordState(id, s, errMsg); err != nil {
		log.Printf("urd: journal: task %d -> %s: %v", id, s, err)
		d.noteJournalError()
	}
}

// recordStats journals a state transition with its byte counters.
func (d *Daemon) recordStats(id uint64, st task.Stats) {
	if d.journal == nil {
		return
	}
	if err := d.journal.RecordStats(id, st); err != nil {
		log.Printf("urd: journal: task %d -> %s: %v", id, st.Status, err)
		d.noteJournalError()
	}
}

// recordSubmit journals a task submission (spec included, so the task
// can be rebuilt and re-run from the journal alone). Unlike the other
// record helpers the failure propagates: an acked submission that never
// reached the WAL would be silently lost by the next restart, so the
// submit path must roll back and shed instead of acking.
func (d *Daemon) recordSubmit(t *task.Task) error {
	if d.journal == nil {
		return nil
	}
	if err := d.journal.RecordSubmit(t.ID, task.SpecOf(t)); err != nil {
		d.noteJournalError()
		return fmt.Errorf("%w: journal: %v", errUnavailable, err)
	}
	return nil
}

// recordSubmitBatch journals a whole batch of submissions as one
// group-commit append — one disk round trip however large the batch.
// Like recordSubmit, a failure propagates so the batch is shed rather
// than acked-and-lost.
func (d *Daemon) recordSubmitBatch(tasks []*task.Task) error {
	if d.journal == nil || len(tasks) == 0 {
		return nil
	}
	ids := make([]uint64, len(tasks))
	specs := make([]task.Spec, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
		specs[i] = task.SpecOf(t)
	}
	if err := d.journal.RecordSubmitBatch(ids, specs); err != nil {
		d.noteJournalError()
		return fmt.Errorf("%w: journal: %v", errUnavailable, err)
	}
	return nil
}

// NodeName returns the configured node name.
func (d *Daemon) NodeName() string { return d.cfg.NodeName }

// FabricAddr returns the network manager's address ("" without fabric).
func (d *Daemon) FabricAddr() string {
	if d.net == nil {
		return ""
	}
	return d.net.Addr()
}

// Executor exposes the transfer executor (the slurm simulation reads its
// E.T.A. estimates).
func (d *Daemon) Executor() *transfer.Executor { return d.executor }

// routeKey identifies a dispatcher lane by its (input, output)
// dataspace pair. A comparable struct instead of a concatenated string:
// the submit path computes it once per task, and two string headers
// cost no allocation where the "in->out" concat allocated every time.
type routeKey struct {
	in, out string
}

// display renders the route for diagnostics ("lustre://->nvme0://").
func (k routeKey) display() string { return k.in + "->" + k.out }

// shardKey routes a task to its dispatcher lane by dataspace pair.
func shardKey(t *task.Task) routeKey {
	return routeKey{in: resourceKey(t.Input), out: resourceKey(t.Output)}
}

func resourceKey(r task.Resource) string {
	switch r.Kind {
	case task.Memory:
		return "mem"
	case task.LocalPath:
		return r.Dataspace
	case task.RemotePath:
		return r.Node + "@" + r.Dataspace
	default:
		return "-"
	}
}

// shardFor returns (creating if needed) the shard for key. Only the
// shard map is locked; queue operations behind it take the queue's own
// lock. Creation re-checks the closed flag under shardMu so a shard can
// never materialize after Close has snapshotted the map — its workers
// would otherwise outlive the drain.
func (d *Daemon) shardFor(key routeKey) (*shard, error) {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	if sh, ok := d.shards[key]; ok {
		return sh, nil
	}
	if d.closed.Load() {
		return nil, queue.ErrClosed
	}
	sh := &shard{key: key.display(), q: queue.NewBounded(d.newPolicy(), d.cfg.MaxShardQueue)}
	d.shards[key] = sh
	for i := 0; i < d.workers; i++ {
		d.wg.Add(1)
		go d.worker(sh)
	}
	return sh, nil
}

// worker drains one shard's queue, mirroring the urd worker threads.
// Dispatch and completion are journaled around the transfer: a crash
// after the Running record but before the terminal one re-queues the
// task on restart (re-running the copy is idempotent).
func (d *Daemon) worker(sh *shard) {
	defer d.wg.Done()
	for {
		t := sh.q.Next()
		if t == nil {
			return
		}
		if d.draining.Load() && t.Status() == task.Pending {
			// Graceful drain: queued tasks are not started — they stay
			// journaled Pending and the next daemon's replay re-queues
			// them. The exiting daemon keeps their in-flight slots.
			continue
		}
		d.record(t.ID, task.Running, "")
		d.executor.Execute(d.ctx, t)
		st := t.Stats()
		if st.Status == task.Pending {
			// The Decide hook handed the task back for another attempt.
			// Its in-flight slot stays held across the backoff window so
			// admission still counts the retrying task.
			d.scheduleRetry(t, st)
			continue
		}
		if st.Status.Terminal() {
			d.recordStats(t.ID, st)
			d.hub.PublishState(t.ID, st)
			if st.Status == task.DeadLetter {
				d.dlAdd(t.ID)
			}
		}
		d.taskDone(t)
	}
}

// decideRetry is the executor's Decide hook — the daemon's retry
// policy. Only transient transport faults are retried: an app-level
// failure (bad path, permission, quota) fails identically on every
// attempt. The budget is the task's own RetryMax when set, the daemon
// default otherwise; once spent, the task is quarantined in the
// dead-letter state instead of failed, so an operator can inspect it
// and requeue via OpDeadletterRequeue.
func (d *Daemon) decideRetry(t *task.Task, err error) transfer.RetryDecision {
	if d.drainAbandon.Load() {
		// Drain deadline: the abort is ours, not the fabric's. Hand the
		// task back to Pending with its segment checkpoint so the next
		// daemon resumes it (scheduleRetry refunds the attempt).
		return transfer.DecideRetry
	}
	if d.closed.Load() || d.ctx.Err() != nil {
		return transfer.DecideFail
	}
	budget := uint64(t.RetryMax)
	if budget == 0 {
		if d.cfg.RetryMax <= 0 {
			return transfer.DecideFail
		}
		budget = uint64(d.cfg.RetryMax)
	}
	if !mercury.IsTransient(err) {
		return transfer.DecideFail
	}
	if t.Attempts() >= budget {
		return transfer.DecideDeadLetter
	}
	return transfer.DecideRetry
}

// Retry backoff defaults: 250ms base doubling per attempt, capped at
// 30s, jittered ±25% so a burst of same-fault retries spreads out.
const (
	defaultRetryBackoff = 250 * time.Millisecond
	maxRetryBackoff     = 30 * time.Second
)

func (d *Daemon) retryBackoffBase() time.Duration {
	if d.cfg.RetryBackoff > 0 {
		return d.cfg.RetryBackoff
	}
	return defaultRetryBackoff
}

// retryDelay computes the jittered exponential backoff after the
// attempts-th consecutive failure (attempts >= 1 when called).
func (d *Daemon) retryDelay(attempts uint64) time.Duration {
	base := d.retryBackoffBase()
	shift := attempts - 1
	if shift > 20 {
		shift = 20
	}
	delay := base << shift
	if delay <= 0 || delay > maxRetryBackoff {
		delay = maxRetryBackoff
	}
	if quarter := int64(delay / 4); quarter > 0 {
		delay += time.Duration(rand.Int63n(2*quarter+1) - quarter)
	}
	return delay
}

// scheduleRetry journals a retrying task's hand-back to Pending —
// attempt counter included, so a restart resumes the schedule even
// mid-backoff — and arms the timer that re-queues it. During shutdown
// no timer is armed: the journaled Pending record is the handoff to
// the next daemon.
func (d *Daemon) scheduleRetry(t *task.Task, st task.Stats) {
	attempts := st.Attempts
	if d.drainAbandon.Load() && attempts > 0 {
		// A drain abort is not a failed attempt: refund it.
		attempts--
		t.RestoreAttempts(attempts)
	}
	if d.journal != nil {
		if err := d.journal.RecordRetry(t.ID, attempts, st.Err); err != nil {
			log.Printf("urd: journal: retry %d: %v", t.ID, err)
			d.noteJournalError()
		}
	}
	d.hub.PublishState(t.ID, t.Stats())
	if d.closed.Load() {
		return
	}
	delay := d.retryDelay(st.Attempts)
	id := t.ID
	d.retryMu.Lock()
	if d.retryTimers == nil {
		d.retryTimers = make(map[uint64]*time.Timer)
	}
	d.retryTimers[id] = time.AfterFunc(delay, func() {
		d.retryMu.Lock()
		delete(d.retryTimers, id)
		d.retryMu.Unlock()
		d.requeueRetry(t)
	})
	d.retryMu.Unlock()
}

// requeueRetry puts a backed-off task back on its shard queue. A task
// cancelled during the backoff window releases its in-flight slot
// here — it sits in no queue, so nobody else will.
func (d *Daemon) requeueRetry(t *task.Task) {
	if d.closed.Load() {
		return // journaled Pending; the next daemon resumes it
	}
	if t.Status() != task.Pending {
		d.taskDone(t)
		return
	}
	sh, err := d.shardFor(shardKey(t))
	if err == nil {
		err = sh.q.Requeue(t)
	}
	if err != nil {
		if errors.Is(err, queue.ErrClosed) {
			return // raced a shutdown: same handoff as above
		}
		msg := "retry requeue: " + err.Error()
		if t.Fail(msg) == nil {
			d.recordStats(t.ID, t.Stats())
			d.hub.PublishState(t.ID, t.Stats())
		}
		d.taskDone(t)
	}
}

// stopRetryTimers halts pending backoff timers at shutdown. Their
// tasks are already journaled Pending (scheduleRetry records before
// arming), so the next daemon resumes the schedule.
func (d *Daemon) stopRetryTimers() {
	d.retryMu.Lock()
	for id, tm := range d.retryTimers {
		tm.Stop()
		delete(d.retryTimers, id)
	}
	d.retryMu.Unlock()
}

// dlAdd quarantines a task ID in the dead-letter set.
func (d *Daemon) dlAdd(id uint64) {
	d.dlMu.Lock()
	if d.dl == nil {
		d.dl = make(map[uint64]struct{})
	}
	d.dl[id] = struct{}{}
	d.dlMu.Unlock()
}

// dlForget drops a task from the dead-letter set (requeued, or retired
// from the task table).
func (d *Daemon) dlForget(id uint64) {
	d.dlMu.Lock()
	delete(d.dl, id)
	d.dlMu.Unlock()
}

// dlIDs snapshots the quarantined task IDs, sorted for stable output.
func (d *Daemon) dlIDs() []uint64 {
	d.dlMu.Lock()
	ids := make([]uint64, 0, len(d.dl))
	for id := range d.dl {
		ids = append(ids, id)
	}
	d.dlMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (d *Daemon) dlCount() int {
	d.dlMu.Lock()
	defer d.dlMu.Unlock()
	return len(d.dl)
}

// journalProbeLoop periodically re-tests a degraded journal: when a
// probe flush-and-compact cycle succeeds (the disk healed), degrade
// mode lifts and submissions are accepted again.
func (d *Daemon) journalProbeLoop() {
	iv := d.cfg.JournalProbeInterval
	if iv <= 0 {
		iv = time.Second
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-tick.C:
			if !d.degraded.Load() || d.closed.Load() {
				continue
			}
			if err := d.journal.Probe(); err != nil {
				continue
			}
			d.degraded.Store(false)
			log.Printf("urd: journal recovered, accepting submissions again")
		}
	}
}

// taskDone releases a task's in-flight slot once it can no longer run
// (executed to a terminal state, or removed from its queue) and folds
// its terminal outcome into the aggregate counters. The slot is
// released exactly once per admitted task — by the worker that executed
// it, or by the dequeue that removed it — so the accounting is
// exactly-once too.
func (d *Daemon) taskDone(t *task.Task) {
	d.inFlight.Add(-1)
	d.accountTerminal(t.Stats())
	d.retire(t.ID)
}

// defaultRetainTasks is the terminal-task retention bound when
// Config.RetainTasks is zero.
const defaultRetainTasks = 16384

// retainTasks resolves the configured in-memory terminal retention.
func (d *Daemon) retainTasks() int {
	if d.cfg.RetainTasks > 0 {
		return d.cfg.RetainTasks
	}
	return defaultRetainTasks
}

// retire records one more terminal task and, once the retention ring
// wraps, evicts the oldest one from the task table and the event hub's
// dedup state. Status queries for the evicted ID answer not-found from
// then on — the same answer a restart gives once the journal's
// RetainTerminal GC has retired it.
func (d *Daemon) retire(id uint64) {
	n := d.retainTasks()
	var evict uint64
	have := false
	d.retiredMu.Lock()
	if d.retired == nil {
		d.retired = make([]uint64, n)
	}
	slot := d.retiredN % n
	if d.retiredN >= n {
		evict, have = d.retired[slot], true
	}
	d.retired[slot] = id
	d.retiredN++
	d.retiredMu.Unlock()
	if have {
		d.tasks.Delete(evict)
		d.hub.ForgetTask(evict)
		d.dlForget(evict)
	}
}

// accountTerminal adds one terminal task's outcome to the atomic
// aggregates OpTransferStats reports, so that op is O(1) instead of a
// walk of the task table under a lock.
func (d *Daemon) accountTerminal(st task.Stats) {
	switch st.Status {
	case task.Finished:
		d.doneFinished.Add(1)
	case task.Failed:
		d.doneFailed.Add(1)
	case task.Cancelled:
		d.doneCancelled.Add(1)
	default:
		return
	}
	d.doneMoved.Add(st.MovedBytes)
}

// shardOf returns the shard a task routes to, or nil before any task
// for that route has been submitted.
func (d *Daemon) shardOf(t *task.Task) *shard {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	return d.shards[shardKey(t)]
}

// dequeue removes a task from its shard queue if it is still pending
// there, releasing its in-flight slot. A racing worker that already
// popped the task releases the slot itself after Execute, so exactly
// one side accounts for it.
func (d *Daemon) dequeue(t *task.Task) {
	if sh := d.shardOf(t); sh != nil {
		if removed := sh.q.Remove(t.ID); removed != nil {
			d.taskDone(t)
		}
	}
}

// expireIfPast fails a still-pending task whose deadline has passed and
// frees its queue slot — the lazy enforcement point for deadlines that
// expire while the task waits behind a busy shard. Running tasks are
// handled by the executor's own deadline context.
func (d *Daemon) expireIfPast(t *task.Task) {
	if t.Deadline.IsZero() || time.Now().Before(t.Deadline) {
		return
	}
	if t.Status() != task.Pending {
		return
	}
	if err := t.Fail("deadline exceeded before start"); err == nil {
		d.record(t.ID, task.Failed, "deadline exceeded before start")
		d.hub.PublishState(t.ID, t.Stats())
		d.dequeue(t)
	}
}

// Close drains listeners, shards, workers and the fabric. In-flight
// transfers complete (or observe their own cancellation); queued tasks
// still execute, as before the shutdown — only new submissions fail.
func (d *Daemon) Close() { d.shutdown(0, false) }

// Shutdown is the graceful SIGTERM drain: admission stops, queued
// tasks are left journaled Pending for the next daemon (their segment
// checkpoints are already in the WAL), running transfers get up to
// timeout to finish — past it they are aborted and handed back to
// Pending with their checkpoints — and the journal is sealed with a
// clean-shutdown marker so the next replay starts fast and re-copies
// nothing that already landed. timeout <= 0 waits indefinitely for the
// running transfers.
func (d *Daemon) Shutdown(timeout time.Duration) { d.shutdown(timeout, true) }

func (d *Daemon) shutdown(timeout time.Duration, drain bool) {
	if d.closed.Swap(true) {
		<-d.done
		return
	}
	if drain {
		d.draining.Store(true)
	}
	// Backoff timers die first: their tasks are journaled Pending, and
	// a timer firing into closing queues would be pure noise.
	d.stopRetryTimers()
	d.shardMu.Lock()
	shards := make([]*shard, 0, len(d.shards))
	for _, sh := range d.shards {
		shards = append(shards, sh)
	}
	d.shardMu.Unlock()
	// The gateway goes first: HTTP requests dispatch into Handle, so no
	// new work (or SSE subscription) can arrive once it is down. Open
	// SSE streams are dropped — their hub subscriptions unwind via the
	// handlers' deferred unsubscribes.
	if d.gw != nil {
		d.gw.Close()
	}
	if d.userSrv != nil {
		d.userSrv.Close()
	}
	if d.ctlSrv != nil {
		d.ctlSrv.Close()
	}
	for _, sh := range shards {
		sh.q.Close()
	}
	if drain && timeout > 0 {
		// Bounded drain: wait for the running transfers up to the
		// deadline, then abort them. drainAbandon flips the Decide hook
		// so the aborts hand tasks back to Pending (checkpoint kept)
		// instead of failing them; the workers then journal the
		// hand-back and exit.
		drained := make(chan struct{})
		go func() {
			d.wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(timeout):
			log.Printf("urd: drain deadline (%s) expired, checkpointing in-flight tasks", timeout)
			d.drainAbandon.Store(true)
			d.stop()
			<-drained
		}
	} else {
		d.wg.Wait()
	}
	// After the drain: the workers have published their final terminal
	// events, so closing the hub now lets subscriber pumps flush them
	// before exiting (their connections are already gone if the
	// listeners closed above; pushes then fail harmlessly).
	d.hub.Close()
	d.stop()
	if d.net != nil {
		d.net.Close()
	}
	// Last, after the drained workers have journaled their terminal
	// transitions: compact and release the journal. A graceful drain
	// additionally seals it with the clean-shutdown marker — MarkClean
	// refuses if the journal is degraded, in which case the restart
	// replays the WAL the hard way, exactly as it should.
	if d.journal != nil {
		if drain {
			if err := d.journal.MarkClean(); err != nil {
				log.Printf("urd: journal: clean-shutdown marker: %v", err)
			}
		}
		if err := d.journal.Close(); err != nil {
			log.Printf("urd: journal: close: %v", err)
		}
	}
	close(d.done)
}

// Done returns a channel closed once Close has fully completed — the
// hook cmd/urd uses to exit when shutdown arrives over the control API
// instead of a signal.
func (d *Daemon) Done() <-chan struct{} { return d.done }

// buildTask validates and authorizes one submission, returning the
// constructed (not yet registered) task. Control callers bypass process
// authorization (admin == true).
func (d *Daemon) buildTask(spec *proto.TaskSpec, pid uint64, admin bool) (*task.Task, error) {
	return d.buildTaskID(spec, pid, admin, d.nextID.Add(1))
}

// buildTaskID is buildTask with the ID supplied by the caller, so a
// validate-only probe (ValidateSpec, the gateway's dry-run import) can
// run the full validation+authorization pipeline without consuming an
// ID — dry runs must mutate nothing, the ID counter included.
func (d *Daemon) buildTaskID(spec *proto.TaskSpec, pid uint64, admin bool, id uint64) (*task.Task, error) {
	in := spec.Input.ToResource()
	out := spec.Output.ToResource()

	t := task.New(id, task.Kind(spec.Kind), in, out)
	t.Priority = int(spec.Priority)
	t.JobID = spec.JobID
	if spec.DeadlineMS > 0 {
		t.Deadline = time.Now().Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	if spec.MaxBps > 0 {
		t.MaxBps = spec.MaxBps
	}
	if spec.RetryMax > 0 {
		t.RetryMax = spec.RetryMax
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	// Authorization: local dataspaces the task touches must be allowed.
	var local []string
	if in.Kind == task.LocalPath {
		local = append(local, in.Dataspace)
	}
	if out.Kind == task.LocalPath {
		local = append(local, out.Dataspace)
	}
	if admin {
		if err := d.Controller.AuthorizeAdmin(local...); err != nil {
			return nil, fmt.Errorf("%w: %v", errNotFound, err)
		}
	} else {
		jid, err := d.Controller.Authorize(pid, local...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errDenied, err)
		}
		t.JobID = jid
	}
	return t, nil
}

// admit claims one in-flight slot against the MaxInFlight gate. The
// CAS loop admits exactly up to the cap under concurrent submitters —
// a plain add-then-check could overshoot and shed load it already
// accepted.
func (d *Daemon) admit() error {
	max := int64(d.cfg.MaxInFlight)
	if max <= 0 {
		d.inFlight.Add(1)
		return nil
	}
	for {
		cur := d.inFlight.Load()
		if cur >= max {
			return fmt.Errorf("%w: %d tasks in flight", errBusy, d.cfg.MaxInFlight)
		}
		if d.inFlight.CompareAndSwap(cur, cur+1) {
			return nil
		}
	}
}

// enqueue makes a registered, journaled task runnable, rolling back the
// registration if the shard queue rejects it.
func (d *Daemon) enqueue(sh *shard, t *task.Task) error {
	// All-tasks subscribers see the submission; a racing worker may
	// already have advanced the task, which the hub's dedup absorbs.
	d.hub.PublishState(t.ID, task.Stats{Status: task.Pending})
	if err := sh.q.Submit(t); err != nil {
		d.tasks.Delete(t.ID)
		d.inFlight.Add(-1)
		// The client got an error; the journaled submission must not be
		// resurrected on restart.
		d.record(t.ID, task.Failed, "never enqueued: "+err.Error())
		d.hub.PublishState(t.ID, task.Stats{Status: task.Failed, Err: "never enqueued: " + err.Error()})
		if errors.Is(err, queue.ErrFull) {
			return fmt.Errorf("%w: shard %s at capacity", errBusy, sh.key)
		}
		return err
	}
	return nil
}

// Submit validates, registers, and enqueues a task, returning its ID.
// Control callers bypass process authorization (admin == true).
func (d *Daemon) Submit(spec *proto.TaskSpec, pid uint64, admin bool) (uint64, error) {
	t, err := d.buildTask(spec, pid, admin)
	if err != nil {
		return 0, err
	}
	if d.closed.Load() {
		return 0, queue.ErrClosed
	}
	if d.degraded.Load() {
		return 0, fmt.Errorf("%w: journal degraded (read-only)", errUnavailable)
	}
	if err := d.admit(); err != nil {
		return 0, err
	}
	sh, err := d.shardFor(shardKey(t))
	if err != nil {
		d.inFlight.Add(-1)
		return 0, err
	}
	d.tasks.Put(t)
	// WAL ordering: the submission is journaled before the task becomes
	// runnable, so a worker's Running record can never precede it. A
	// journal that cannot take the append sheds the submission instead
	// of acking work the next restart would forget.
	if err := d.recordSubmit(t); err != nil {
		d.tasks.Delete(t.ID)
		d.inFlight.Add(-1)
		return 0, err
	}
	if err := d.enqueue(sh, t); err != nil {
		return 0, err
	}
	return t.ID, nil
}

// SubmitBatch queues many tasks with per-entry acceptance: a full shard
// or an exhausted in-flight budget rejects that entry with its own
// status while the rest proceed. The batch amortizes the per-task
// bookkeeping the single-op path pays N times — the task registry is
// locked once per stripe (not once per task), and the journal records
// the whole batch as one group-commit flush. Results align with specs.
func (d *Daemon) SubmitBatch(specs []proto.TaskSpec, pid uint64, admin bool) []proto.SubmitResult {
	results, _ := d.submitBatch(specs, pid, admin, nil)
	return results
}

// submitBatch implements SubmitBatch. When subscribe is non-nil it runs
// after the accepted tasks are registered and journaled but BEFORE any
// of them becomes runnable — the one point where a subscription can be
// attached with zero chance of a missed event and zero need for
// snapshots (see EventHub.SubscribeSubmitted). It returns whatever
// subscription ID the hook yields.
func (d *Daemon) submitBatch(specs []proto.TaskSpec, pid uint64, admin bool, subscribe func(ids []uint64) uint64) ([]proto.SubmitResult, uint64) {
	results := make([]proto.SubmitResult, len(specs))
	accepted := make([]*task.Task, 0, len(specs))
	shards := make([]*shard, 0, len(specs))
	closed := d.closed.Load()
	var degradedErr error
	if d.degraded.Load() {
		degradedErr = fmt.Errorf("%w: journal degraded (read-only)", errUnavailable)
	}
	for i := range specs {
		if closed {
			results[i] = proto.SubmitResult{Status: uint32(statusOf(queue.ErrClosed)), Error: queue.ErrClosed.Error()}
			continue
		}
		if degradedErr != nil {
			results[i] = proto.SubmitResult{Status: uint32(statusOf(degradedErr)), Error: degradedErr.Error()}
			continue
		}
		t, err := d.buildTask(&specs[i], pid, admin)
		if err != nil {
			results[i] = proto.SubmitResult{Status: uint32(statusOf(err)), Error: err.Error()}
			continue
		}
		if err := d.admit(); err != nil {
			results[i] = proto.SubmitResult{Status: uint32(statusOf(err)), Error: err.Error()}
			continue
		}
		sh, err := d.shardFor(shardKey(t))
		if err != nil {
			d.inFlight.Add(-1)
			results[i] = proto.SubmitResult{Status: uint32(statusOf(err)), Error: err.Error()}
			continue
		}
		results[i] = proto.SubmitResult{TaskID: t.ID, Status: uint32(proto.Success)}
		accepted = append(accepted, t)
		shards = append(shards, sh)
	}
	// Register the whole batch stripe-by-stripe, then journal it as one
	// coalesced append before any entry becomes runnable (same WAL
	// ordering rule as the single-op path, amortized).
	d.tasks.PutBatch(accepted)
	if err := d.recordSubmitBatch(accepted); err != nil {
		// Nothing in the batch became runnable yet: unwind every
		// acceptance and shed the whole batch — an acked-but-unjournaled
		// task would be lost by the next restart.
		for _, t := range accepted {
			d.tasks.Delete(t.ID)
			d.inFlight.Add(-1)
		}
		for r := range results {
			if results[r].Status == uint32(proto.Success) {
				results[r] = proto.SubmitResult{Status: uint32(statusOf(err)), Error: err.Error()}
			}
		}
		return results, 0
	}
	var subID uint64
	if subscribe != nil && len(accepted) > 0 {
		ids := make([]uint64, len(accepted))
		for i, t := range accepted {
			ids[i] = t.ID
		}
		subID = subscribe(ids)
	}
	for i, t := range accepted {
		if err := d.enqueue(shards[i], t); err != nil {
			// enqueue rolled the entry back; surface its per-entry error.
			for r := range results {
				if results[r].TaskID == t.ID {
					results[r] = proto.SubmitResult{Status: uint32(statusOf(err)), Error: err.Error()}
					break
				}
			}
		}
	}
	return results, subID
}

// Cancel aborts a task, mirroring norns_cancel: a pending task is
// removed from its shard queue and terminates immediately; a running
// task is interrupted cooperatively at its next chunk boundary; a
// terminal task rejects. The returned stats are a snapshot taken right
// after the request (a running task may still be Cancelling in it).
func (d *Daemon) Cancel(id uint64) (task.Stats, error) {
	t, ok := d.tasks.Get(id)
	if !ok {
		return task.Stats{}, fmt.Errorf("%w: task %d", errNotFound, id)
	}
	if err := t.Cancel(); err != nil {
		return t.Stats(), fmt.Errorf("%w: %v", errBadRequest, err)
	}
	// Journal the observed post-cancel state: Cancelled for a pending
	// task, Cancelling for a running one (its worker journals the
	// terminal state when the interrupt is confirmed). The full stats
	// snapshot is recorded because a racing worker may already have
	// finalized the task — a terminal record is sticky in the journal,
	// so it must carry the real byte counters, not zeros.
	st := t.Stats()
	d.recordStats(id, st)
	d.hub.PublishState(id, st)
	// Free the queue slot if the task was still pending; a racing worker
	// that already popped it sees Start fail and releases the slot.
	d.dequeue(t)
	return t.Stats(), nil
}

// Task returns a registered task. One stripe read-lock — status polls
// never serialize behind submissions or each other.
func (d *Daemon) Task(id uint64) (*task.Task, error) {
	t, ok := d.tasks.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: task %d", errNotFound, id)
	}
	return t, nil
}

// PendingTasks returns the queue depth across all shards.
func (d *Daemon) PendingTasks() int {
	d.shardMu.Lock()
	shards := make([]*shard, 0, len(d.shards))
	for _, sh := range d.shards {
		shards = append(shards, sh)
	}
	d.shardMu.Unlock()
	n := 0
	for _, sh := range shards {
		n += sh.q.Len()
	}
	return n
}

// Shards returns the active dispatcher lanes and their queue depths,
// sorted by key (diagnostics and tests).
func (d *Daemon) Shards() map[string]int {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	out := make(map[string]int, len(d.shards))
	for key, sh := range d.shards {
		out[key.display()] = sh.q.Len()
	}
	return out
}

// sentinel errors mapped to protocol status codes.
var (
	errBadRequest = errors.New("bad request")
	errNotFound   = errors.New("not found")
	errExists     = errors.New("already exists")
	errDenied     = errors.New("permission denied")
	errBusy       = errors.New("resource busy")
	// errUnavailable is the retryable shed: the daemon is degraded
	// (journal write failure) or shutting down, and the client should
	// try again later — possibly against a restarted daemon.
	errUnavailable = errors.New("temporarily unavailable")
)

func statusOf(err error) proto.StatusCode {
	switch {
	case err == nil:
		return proto.Success
	case errors.Is(err, errBadRequest), errors.Is(err, task.ErrBadTransition):
		return proto.EBadRequest
	case errors.Is(err, errNotFound), errors.Is(err, dataspace.ErrNotFound),
		errors.Is(err, dataspace.ErrJobNotFound), errors.Is(err, dataspace.ErrProcNotFound):
		return proto.ENotFound
	case errors.Is(err, errExists), errors.Is(err, dataspace.ErrExists),
		errors.Is(err, dataspace.ErrJobExists), errors.Is(err, dataspace.ErrProcExists):
		return proto.EExists
	case errors.Is(err, errDenied), errors.Is(err, dataspace.ErrDenied):
		return proto.EPermission
	case errors.Is(err, errBusy), errors.Is(err, queue.ErrFull):
		return proto.EAgain
	case errors.Is(err, errUnavailable), errors.Is(err, queue.ErrClosed),
		errors.Is(err, journal.ErrDegraded):
		return proto.EUnavailable
	case errors.Is(err, dataspace.ErrBadID), errors.Is(err, dataspace.ErrNilFS):
		return proto.EBadRequest
	default:
		return proto.EInternal
	}
}

func errResp(err error) *proto.Response {
	return &proto.Response{Status: statusOf(err), Error: err.Error()}
}

// Handle is the transport dispatch: it implements every protocol op.
// It is exported so tests and single-process simulations can drive the
// daemon without sockets.
func (d *Daemon) Handle(peer transport.PeerInfo, req *proto.Request) *proto.Response {
	if req.Op.Control() && !peer.Control {
		return &proto.Response{
			Status: proto.EPermission,
			Error:  fmt.Sprintf("op %s requires the control socket", req.Op),
		}
	}
	switch req.Op {
	case proto.OpPing:
		return &proto.Response{Status: proto.Success}
	case proto.OpStatus:
		return d.handleStatus()
	case proto.OpHealth:
		return d.handleHealth()
	case proto.OpDeadletterList:
		return d.handleDeadletterList()
	case proto.OpDeadletterRequeue:
		return d.handleDeadletterRequeue(req)
	case proto.OpSubmit:
		return d.handleSubmit(peer, req)
	case proto.OpSubmitBatch:
		return d.handleSubmitBatch(peer, req)
	case proto.OpSubscribe:
		return d.handleSubscribe(peer, req)
	case proto.OpUnsubscribe:
		return d.handleUnsubscribe(req)
	case proto.OpWait:
		return d.handleWait(req)
	case proto.OpTaskStatus:
		return d.handleTaskStatus(req)
	case proto.OpCancel:
		return d.handleCancel(peer, req)
	case proto.OpGetDataspaceInfo:
		return d.handleDataspaceInfo()
	case proto.OpRegisterDataspace:
		return d.handleRegisterDataspace(req)
	case proto.OpUpdateDataspace:
		return d.handleUpdateDataspace(req)
	case proto.OpUnregisterDataspace:
		return d.handleUnregisterDataspace(req)
	case proto.OpTrackDataspace:
		return d.handleTrackDataspace(req)
	case proto.OpTrackedNonEmpty:
		return d.handleTrackedNonEmpty()
	case proto.OpRegisterJob, proto.OpUpdateJob:
		return d.handleRegisterJob(req)
	case proto.OpUnregisterJob:
		return d.handleUnregisterJob(req)
	case proto.OpAddProcess:
		return d.handleAddProcess(req)
	case proto.OpRemoveProcess:
		return d.handleRemoveProcess(req)
	case proto.OpTransferStats:
		return d.handleTransferStats()
	case proto.OpShutdown:
		go d.Close()
		return &proto.Response{Status: proto.Success}
	default:
		return &proto.Response{Status: proto.EBadRequest, Error: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// handleHealth is the readiness probe: Success while the daemon
// accepts new work, EUnavailable (retryable) while it sheds — degraded
// journal, draining, or closed. Liveness is implicit: a dead daemon
// answers nothing.
func (d *Daemon) handleHealth() *proto.Response {
	switch {
	case d.closed.Load():
		return &proto.Response{Status: proto.EUnavailable, Error: "daemon shutting down"}
	case d.degraded.Load():
		return &proto.Response{Status: proto.EUnavailable, Error: "journal degraded (read-only)"}
	default:
		return &proto.Response{Status: proto.Success}
	}
}

// handleDeadletterList reports the quarantined tasks: budget-exhausted
// transfers parked for operator inspection.
func (d *Daemon) handleDeadletterList() *proto.Response {
	resp := &proto.Response{Status: proto.Success}
	for _, id := range d.dlIDs() {
		t, ok := d.tasks.Get(id)
		if !ok {
			continue
		}
		st := t.Stats()
		if st.Status != task.DeadLetter {
			continue
		}
		resp.DeadLetters = append(resp.DeadLetters, proto.DeadLetterEntry{
			TaskID: id, Attempts: st.Attempts, Err: st.Err,
		})
	}
	return resp
}

// handleDeadletterRequeue resubmits one quarantined task (Request.
// TaskID) or all of them (TaskID == 0) as fresh tasks with fresh retry
// budgets. The quarantined originals stay in the table as an audit
// trail; they only leave the dead-letter listing.
func (d *Daemon) handleDeadletterRequeue(req *proto.Request) *proto.Response {
	ids := d.dlIDs()
	if req.TaskID != 0 {
		ids = []uint64{req.TaskID}
	}
	resp := &proto.Response{Status: proto.Success}
	for _, id := range ids {
		nid, err := d.requeueDeadLetter(id)
		if err != nil {
			// A targeted requeue reports its failure; the sweep skips
			// entries a concurrent operator already handled.
			if req.TaskID != 0 {
				return errResp(err)
			}
			continue
		}
		resp.TaskIDs = append(resp.TaskIDs, nid)
	}
	return resp
}

// requeueDeadLetter clones a quarantined task's spec into a fresh
// submission (new ID, zeroed attempt counter) and enqueues it through
// the normal admission path. Returns the fresh task's ID.
func (d *Daemon) requeueDeadLetter(id uint64) (uint64, error) {
	t, ok := d.tasks.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w: task %d", errNotFound, id)
	}
	if t.Status() != task.DeadLetter {
		return 0, fmt.Errorf("%w: task %d is not dead-lettered", errBadRequest, id)
	}
	if d.closed.Load() {
		return 0, queue.ErrClosed
	}
	if d.degraded.Load() {
		return 0, fmt.Errorf("%w: journal degraded (read-only)", errUnavailable)
	}
	nt := task.SpecOf(t).Task(d.nextID.Add(1))
	if err := d.admit(); err != nil {
		return 0, err
	}
	sh, err := d.shardFor(shardKey(nt))
	if err != nil {
		d.inFlight.Add(-1)
		return 0, err
	}
	d.tasks.Put(nt)
	if err := d.recordSubmit(nt); err != nil {
		d.tasks.Delete(nt.ID)
		d.inFlight.Add(-1)
		return 0, err
	}
	if err := d.enqueue(sh, nt); err != nil {
		return 0, err
	}
	d.dlForget(id)
	return nt.ID, nil
}

func (d *Daemon) handleStatus() *proto.Response {
	nTasks := d.tasks.Len()
	d.shardMu.Lock()
	nShards := len(d.shards)
	d.shardMu.Unlock()
	pending := d.PendingTasks()
	info := fmt.Sprintf("%s node=%s policy=%s shards=%d pending=%d tasks=%d",
		Version, d.cfg.NodeName, d.policyName, nShards, pending, nTasks)
	rec := d.recovered
	if d.journal != nil {
		info += fmt.Sprintf(" recovered=%d", rec.Requeued())
		if d.recoveredClean {
			info += " clean"
		}
	}
	if d.degraded.Load() {
		info += " DEGRADED"
	}
	st := &proto.DaemonStatus{
		Version:            Version,
		Node:               d.cfg.NodeName,
		Policy:             d.policyName,
		Shards:             uint64(nShards),
		Pending:            uint64(pending),
		Tasks:              uint64(nTasks),
		Journal:            d.journal != nil,
		RecoveredPending:   uint64(rec.Pending),
		RecoveredRunning:   uint64(rec.Running),
		RecoveredCancelled: uint64(rec.Cancelled),
		RecoveredTerminal:  uint64(rec.Terminal),
		RecoveredClean:     d.recoveredClean,
		Degraded:           d.degraded.Load(),
		DeadLetterTasks:    uint64(d.dlCount()),
		RetryBackoffMS:     d.retryBackoffBase().Milliseconds(),
	}
	if d.cfg.RetryMax > 0 {
		st.RetryMax = uint64(d.cfg.RetryMax)
	}
	if d.net != nil {
		for _, b := range d.net.Breakers() {
			st.Breakers = append(st.Breakers, proto.BreakerState{
				Addr: b.Addr, State: b.State, Fails: b.Fails, Trips: b.Trips,
			})
		}
	}
	if tn := d.executor.Env.Tuner; tn != nil {
		st.Autotune = true
		for _, r := range tn.Snapshot() {
			st.AutotuneRoutes = append(st.AutotuneRoutes, proto.AutotuneRoute{
				In: r.In, Out: r.Out, Kind: r.Kind,
				Streams:    uint32(r.Streams),
				SegSize:    r.SegSize,
				GoodputBps: r.Goodput,
				Samples:    uint64(r.Samples),
				State:      r.State,
			})
		}
		info += " autotune=on"
	}
	if d.cache != nil {
		cs := d.cache.Stats()
		st.CacheEnabled = true
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheEvictions = cs.Evictions
		st.CacheBytes = cs.Bytes
		st.CacheCapBytes = cs.CapBytes
		info += fmt.Sprintf(" cache=%d/%dMiB hits=%d misses=%d evicts=%d",
			cs.Bytes>>20, cs.CapBytes>>20, cs.Hits, cs.Misses, cs.Evictions)
	}
	return &proto.Response{
		Status:     proto.Success,
		DaemonInfo: info,
		StatusInfo: st,
	}
}

// handleTransferStats reports observed transfer performance so the
// scheduler can refine its staging estimates — the feedback loop the
// paper's conclusions call for. The terminal tallies come from the
// exactly-once atomic counters taskDone maintains, so this op is O(1):
// it no longer walks the task table under a lock (on a long-lived
// daemon that walk grew with history, and it serialized against the
// submit path). Counters are lifetime aggregates — compaction retiring
// old terminal tasks from the table no longer deflates them. Running is
// derived (admitted minus queued), so a racing dequeue can transiently
// skew it by one; it is a scheduler hint, not an invariant.
func (d *Daemon) handleTransferStats() *proto.Response {
	pending := d.PendingTasks()
	running := int(d.inFlight.Load()) - pending
	if running < 0 {
		running = 0
	}
	m := &proto.TransferMetrics{
		BandwidthBps: d.executor.ETA.Bandwidth(),
		Samples:      uint64(d.executor.ETA.Samples()),
		Pending:      uint64(pending),
		Running:      uint64(running),
		Finished:     d.doneFinished.Load(),
		Failed:       d.doneFailed.Load(),
		Cancelled:    d.doneCancelled.Load(),
		MovedBytes:   d.doneMoved.Load(),
	}
	return &proto.Response{Status: proto.Success, Metrics: m}
}

func (d *Daemon) handleSubmit(peer transport.PeerInfo, req *proto.Request) *proto.Response {
	if req.Task == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "submit without task"}
	}
	id, err := d.Submit(req.Task, req.PID, peer.Control)
	if err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success, TaskID: id}
}

// handleSubmitBatch queues N tasks from one RPC with per-entry
// acceptance: a full shard or an exhausted in-flight budget rejects
// that entry with its own status (EAgain for backpressure) while the
// rest of the batch proceeds. The response's Results align with the
// request's Tasks. The batch path amortizes registry locking (once per
// stripe) and the journal append (one group-commit flush) across the
// whole batch.
func (d *Daemon) handleSubmitBatch(peer transport.PeerInfo, req *proto.Request) *proto.Response {
	if len(req.Tasks) == 0 {
		return &proto.Response{Status: proto.EBadRequest, Error: "submit-batch without tasks"}
	}
	// Combined submit+subscribe: when the request carries a Subscribe
	// spec and the connection can take pushes, the subscription is
	// attached before the accepted tasks become runnable — one RPC
	// replaces the old submit-then-subscribe pair, and because nothing
	// can have transitioned yet, no per-task snapshot events are needed
	// at all. SubID 0 with accepted tasks means no subscription exists.
	var subscribe func(ids []uint64) uint64
	if req.Subscribe != nil && peer.Push != nil {
		subscribe = func(ids []uint64) uint64 {
			subID, err := d.hub.SubscribeSubmitted(req.Subscribe, ids,
				Pusher{Push: peer.Push, PushBatch: peer.PushBatch}, peer.Closed)
			if err != nil {
				return 0 // hub closing: the client fails the accepted handles
			}
			return subID
		}
	}
	results, subID := d.submitBatch(req.Tasks, req.PID, peer.Control, subscribe)
	return &proto.Response{Status: proto.Success, Results: results, SubID: subID}
}

// handleSubscribe registers the connection for server-push task events.
// The subscription's pump writes Event frames (Seq 0) interleaved with
// this connection's pipelined responses until the task set terminates,
// the client unsubscribes, or the connection drops.
func (d *Daemon) handleSubscribe(peer transport.PeerInfo, req *proto.Request) *proto.Response {
	if req.Subscribe == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "subscribe without spec"}
	}
	if peer.Push == nil {
		return &proto.Response{Status: proto.EBadRequest,
			Error: "subscriptions need a push-capable connection"}
	}
	// Expire lapsed deadlines before the hub takes its lock: expireIfPast
	// publishes a state event, and the snapshot callback runs under the
	// hub lock where publishing would self-deadlock — so it must stay
	// pure (Task lookup + Stats only).
	for _, id := range req.Subscribe.TaskIDs {
		if t, err := d.Task(id); err == nil {
			d.expireIfPast(t)
		}
	}
	snapshot := func(id uint64) (task.Stats, error) {
		t, err := d.Task(id)
		if err != nil {
			return task.Stats{}, err
		}
		return t.Stats(), nil
	}
	subID, err := d.hub.Subscribe(req.Subscribe, snapshot,
		Pusher{Push: peer.Push, PushBatch: peer.PushBatch}, peer.Closed)
	if err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success, SubID: subID}
}

func (d *Daemon) handleUnsubscribe(req *proto.Request) *proto.Response {
	if err := d.hub.Unsubscribe(req.SubID); err != nil {
		return &proto.Response{Status: proto.ENotFound, Error: err.Error()}
	}
	return &proto.Response{Status: proto.Success}
}

// StatusPolls reports how many OpTaskStatus requests the daemon has
// served — zero for a client that tracks its tasks via subscriptions.
func (d *Daemon) StatusPolls() uint64 { return d.statusPolls.Load() }

func (d *Daemon) handleWait(req *proto.Request) *proto.Response {
	t, err := d.Task(req.TaskID)
	if err != nil {
		return errResp(err)
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	// A deadlined task must not keep its waiters blocked past the
	// deadline while it sits behind a busy shard: wait only until the
	// deadline, expire it if it is still pending, then resume waiting
	// for whatever terminal state results.
	if !t.Deadline.IsZero() && t.Status() == task.Pending {
		until := time.Until(t.Deadline)
		if until > 0 && (timeout <= 0 || until < timeout) {
			if !t.Wait(until) && timeout > 0 {
				timeout -= until
				if timeout <= 0 {
					return &proto.Response{Status: proto.ETimeout, TaskID: t.ID}
				}
			}
		}
		d.expireIfPast(t)
	}
	if !t.Wait(timeout) {
		return &proto.Response{Status: proto.ETimeout, TaskID: t.ID}
	}
	st := proto.FromStats(t.Stats())
	return &proto.Response{Status: proto.Success, TaskID: t.ID, Stats: &st}
}

func (d *Daemon) handleTaskStatus(req *proto.Request) *proto.Response {
	d.statusPolls.Add(1)
	t, err := d.Task(req.TaskID)
	if err != nil {
		return errResp(err)
	}
	d.expireIfPast(t)
	st := proto.FromStats(t.Stats())
	code := proto.Success
	if task.Status(st.Status) == task.Failed {
		code = proto.ETaskError
	}
	return &proto.Response{Status: code, TaskID: t.ID, Stats: &st}
}

func (d *Daemon) handleCancel(peer transport.PeerInfo, req *proto.Request) *proto.Response {
	// Cancellation is destructive, so unlike Wait/TaskStatus it is
	// authorized: user-socket callers may only cancel tasks belonging to
	// their own job. Control-socket callers cancel anything.
	if !peer.Control {
		t, err := d.Task(req.TaskID)
		if err != nil {
			return errResp(err)
		}
		jid, err := d.Controller.Authorize(req.PID)
		if err != nil {
			return errResp(fmt.Errorf("%w: %v", errDenied, err))
		}
		if jid != t.JobID {
			return errResp(fmt.Errorf("%w: task %d belongs to another job", errDenied, req.TaskID))
		}
	}
	stats, err := d.Cancel(req.TaskID)
	if err != nil {
		return errResp(err)
	}
	st := proto.FromStats(stats)
	return &proto.Response{Status: proto.Success, TaskID: req.TaskID, Stats: &st}
}

func (d *Daemon) handleDataspaceInfo() *proto.Response {
	resp := &proto.Response{Status: proto.Success}
	for _, id := range d.Controller.Spaces.List() {
		ds, err := d.Controller.Spaces.Get(id)
		if err != nil {
			continue
		}
		used, _ := ds.Usage()
		resp.Dataspaces = append(resp.Dataspaces, proto.DataspaceSpec{
			ID:        ds.ID,
			Backend:   uint32(ds.Backend.Kind),
			Mount:     ds.Backend.Mount,
			Capacity:  ds.Backend.Capacity,
			Track:     ds.Track,
			UsedBytes: used,
		})
	}
	return resp
}

// backendFromSpec builds a dataspace backend: a Mount selects a rooted
// OSFS (the real mount point of the tier); no Mount selects an
// in-memory FS (used by tests and the memory tier). The WrapFS fault
// hook (if any) wraps the result, so injected disk faults apply both to
// freshly registered dataspaces and to ones rebuilt at journal replay.
func (d *Daemon) backendFromSpec(spec *proto.DataspaceSpec) (dataspace.Backend, error) {
	b := dataspace.Backend{
		Kind:     dataspace.BackendKind(spec.Backend),
		Mount:    spec.Mount,
		Capacity: spec.Capacity,
	}
	if spec.Mount != "" {
		fs, err := storage.NewOSFS(spec.Mount)
		if err != nil {
			return b, err
		}
		b.FS = fs
	} else if spec.Capacity > 0 {
		b.FS = storage.NewMemFSWithCapacity(spec.Capacity)
	} else {
		b.FS = storage.NewMemFS()
	}
	b.FS = d.wrapFS(spec.ID, b.FS)
	return b, nil
}

func (d *Daemon) handleRegisterDataspace(req *proto.Request) *proto.Response {
	if req.Dataspace == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "register without dataspace"}
	}
	b, err := d.backendFromSpec(req.Dataspace)
	if err != nil {
		return errResp(err)
	}
	ds, err := d.Controller.Spaces.Register(req.Dataspace.ID, b)
	if err != nil {
		return errResp(err)
	}
	ds.Track = req.Dataspace.Track
	d.recordDataspace(req.Dataspace)
	return &proto.Response{Status: proto.Success}
}

// recordDataspace journals a dataspace configuration so recovered tasks
// find their tiers after a restart. Best-effort, like record.
func (d *Daemon) recordDataspace(spec *proto.DataspaceSpec) {
	if d.journal == nil {
		return
	}
	if err := d.journal.RecordDataspace(*spec); err != nil {
		log.Printf("urd: journal: dataspace %s: %v", spec.ID, err)
	}
}

func (d *Daemon) handleUpdateDataspace(req *proto.Request) *proto.Response {
	if req.Dataspace == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "update without dataspace"}
	}
	b, err := d.backendFromSpec(req.Dataspace)
	if err != nil {
		return errResp(err)
	}
	if err := d.Controller.Spaces.Update(req.Dataspace.ID, b); err != nil {
		return errResp(err)
	}
	d.recordDataspace(req.Dataspace)
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleUnregisterDataspace(req *proto.Request) *proto.Response {
	if req.Dataspace == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "unregister without dataspace"}
	}
	if err := d.Controller.Spaces.Unregister(req.Dataspace.ID); err != nil {
		return errResp(err)
	}
	if d.journal != nil {
		if err := d.journal.RecordDataspaceRemoved(req.Dataspace.ID); err != nil {
			log.Printf("urd: journal: dataspace %s: %v", req.Dataspace.ID, err)
		}
	}
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleTrackDataspace(req *proto.Request) *proto.Response {
	if req.Dataspace == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "track without dataspace"}
	}
	if err := d.Controller.Spaces.SetTrack(req.Dataspace.ID, req.Track); err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleTrackedNonEmpty() *proto.Response {
	ids, err := d.Controller.Spaces.NonEmptyTracked()
	if err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success, NonEmpty: ids}
}

func (d *Daemon) handleRegisterJob(req *proto.Request) *proto.Response {
	if req.Job == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "register without job"}
	}
	job := dataspace.Job{ID: req.Job.ID, Hosts: req.Job.Hosts}
	for _, l := range req.Job.Limits {
		job.Limits = append(job.Limits, dataspace.JobLimits{Dataspace: l.Dataspace, Quota: l.Quota})
	}
	var err error
	if req.Op == proto.OpRegisterJob {
		err = d.Controller.RegisterJob(job)
	} else {
		err = d.Controller.UpdateJob(job)
	}
	if err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleUnregisterJob(req *proto.Request) *proto.Response {
	if req.Job == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "unregister without job"}
	}
	if err := d.Controller.UnregisterJob(req.Job.ID); err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleAddProcess(req *proto.Request) *proto.Response {
	if req.Proc == nil || req.Job == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "add-process needs job and proc"}
	}
	p := dataspace.Proc{PID: req.Proc.PID, UID: req.Proc.UID, GID: req.Proc.GID}
	if err := d.Controller.AddProcess(req.Job.ID, p); err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success}
}

func (d *Daemon) handleRemoveProcess(req *proto.Request) *proto.Response {
	if req.Proc == nil || req.Job == nil {
		return &proto.Response{Status: proto.EBadRequest, Error: "remove-process needs job and proc"}
	}
	p := dataspace.Proc{PID: req.Proc.PID, UID: req.Proc.UID, GID: req.Proc.GID}
	if err := d.Controller.RemoveProcess(req.Job.ID, p); err != nil {
		return errResp(err)
	}
	return &proto.Response{Status: proto.Success}
}
