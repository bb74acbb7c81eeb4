// Package nornsctl is the administrative NORNS API (the nornsctl_*
// functions of Table I): job schedulers use it to control the urd
// daemon, define dataspaces and jobs, attach processes, and submit the
// staging I/O tasks that run a scheduled job.
package nornsctl

import (
	"context"
	"errors"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/api/client"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
)

// Typed error sentinels shared with the norns API: every failed
// response satisfies errors.Is against the sentinel for its status
// code (ErrAgain is the backpressure retry signal).
var (
	ErrAgain       = apierr.ErrAgain
	ErrBadRequest  = apierr.ErrBadRequest
	ErrNoSuchTask  = apierr.ErrNoSuchTask
	ErrExists      = apierr.ErrExists
	ErrPermission  = apierr.ErrPermission
	ErrTaskError   = apierr.ErrTaskError
	ErrInternal    = apierr.ErrInternal
	ErrUnavailable = apierr.ErrUnavailable
	// ErrTimeout matches the error Wait returns when its timeout
	// elapses first; apierr.IsRetryable accepts it.
	ErrTimeout = apierr.ErrTimeout
)

// Backend kinds for RegisterDataspace, mirroring
// dataspace.BackendKind values.
const (
	BackendPosixDir    = 1
	BackendNVM         = 2
	BackendParallelFS  = 3
	BackendBurstBuffer = 4
	BackendMemory      = 5
)

// DataspaceDef describes a dataspace to register
// (nornsctl_backend_init + register_dataspace).
type DataspaceDef struct {
	ID       string
	Backend  uint32
	Mount    string // host directory backing the tier; "" = in-memory
	Capacity int64
	Track    bool
}

// JobLimit is one dataspace allowance.
type JobLimit struct {
	Dataspace string
	Quota     int64
}

// JobDef describes a job registration (nornsctl_job_init +
// register_job).
type JobDef struct {
	ID     uint64
	Hosts  []string
	Limits []JobLimit
}

// ProcDef describes a process registration (nornsctl_proc_init).
type ProcDef struct {
	PID uint64
	UID uint64
	GID uint64
}

// Stats is the task report shared with the user API: completion
// status plus the transfer engine's live progress, cache, delta, and
// retry fields.
type Stats = client.Stats

// Client speaks the control protocol to a urd daemon.
type Client struct {
	c *client.Client
}

// Dial connects to the daemon's control socket.
func Dial(socket string) (*Client, error) {
	return DialNetwork("unix", socket)
}

// DialNetwork connects over an explicit network.
func DialNetwork(network, addr string) (*Client, error) {
	c, err := client.Dial("nornsctl", network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{c}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.c.Close() }

// call sends one request, mapping a failed response to *apierr.Error.
func (c *Client) call(req *proto.Request) (*proto.Response, error) {
	return c.c.Call(context.Background(), req)
}

func (c *Client) simple(req *proto.Request) error {
	_, err := c.call(req)
	return err
}

// Ping checks daemon liveness (nornsctl_send_command).
func (c *Client) Ping() error {
	return c.simple(&proto.Request{Op: proto.OpPing})
}

// Status returns the daemon's status line (nornsctl_status).
func (c *Client) Status() (string, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpStatus})
	if err != nil {
		return "", err
	}
	return resp.DaemonInfo, nil
}

// DaemonStatus is the structured nornsctl_status report, including what
// the daemon's last journal replay recovered (all-zero when the daemon
// runs without a state directory).
type DaemonStatus struct {
	// Info is the daemon's human-readable status line (what Status
	// returns), carried along so one round trip serves both forms.
	Info    string
	Version string
	Node    string
	Policy  string
	Shards  uint64
	Pending uint64
	Tasks   uint64
	// Journal reports whether the daemon persists a durable task journal.
	Journal bool
	// RecoveredPending/RecoveredRunning tasks were re-queued by the last
	// restart; RecoveredCancelled were mid-cancellation and confirmed;
	// RecoveredTerminal were resurrected for status queries only.
	RecoveredPending   uint64
	RecoveredRunning   uint64
	RecoveredCancelled uint64
	RecoveredTerminal  uint64
	// Autotune reports whether the per-route transfer tuner is enabled;
	// AutotuneRoutes is its live table, one row per route the daemon has
	// moved data on.
	Autotune       bool
	AutotuneRoutes []AutotuneRoute
	// CacheEnabled reports whether the content-addressed staging cache
	// is configured; the gauges below are its lifetime counters and
	// current footprint versus the configured bound.
	CacheEnabled   bool
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheBytes     int64
	CacheCapBytes  int64
	// Degraded reports journal degrade mode: the WAL hit a write error
	// and new submissions are being shed with EUnavailable.
	Degraded bool
	// DeadLetterTasks counts tasks quarantined after exhausting their
	// retry budget (inspect with DeadLetterList).
	DeadLetterTasks uint64
	// RetryMax/RetryBackoffMS are the daemon's default retry policy
	// (0 retries = automatic retry disabled).
	RetryMax       uint64
	RetryBackoffMS int64
	// Breakers is the fabric circuit-breaker table, one row per remote
	// endpoint the daemon has dialed.
	Breakers []BreakerState
	// RecoveredClean reports that the last journal replay found the
	// clean-shutdown marker (the previous daemon drained gracefully).
	RecoveredClean bool
}

// BreakerState is one fabric circuit-breaker row: the health of one
// remote endpoint as the daemon's transport layer sees it.
type BreakerState struct {
	Addr  string
	State string // closed | open | half-open
	Fails uint64 // current consecutive-failure count
	Trips uint64 // lifetime open transitions
}

// AutotuneRoute is one row of the daemon's transfer-tuning table.
type AutotuneRoute struct {
	// In/Out name the route's endpoints (dataspace IDs, node-prefixed
	// for remote ends); Kind is the resource pair.
	In, Out, Kind string
	// Streams and SegSize are the route's current operating point;
	// GoodputBps the EWMA goodput observed there.
	Streams    uint32
	SegSize    int64
	GoodputBps float64
	// Samples counts all observations on the route; State is the
	// controller state (seeding, probing, settled, capped).
	Samples uint64
	State   string
}

// StatusInfo returns the daemon's structured status report.
func (c *Client) StatusInfo() (DaemonStatus, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpStatus})
	if err != nil {
		return DaemonStatus{}, err
	}
	if resp.StatusInfo == nil {
		return DaemonStatus{}, errors.New("nornsctl: response without status report")
	}
	s := resp.StatusInfo
	out := DaemonStatus{
		Info:               resp.DaemonInfo,
		Version:            s.Version,
		Node:               s.Node,
		Policy:             s.Policy,
		Shards:             s.Shards,
		Pending:            s.Pending,
		Tasks:              s.Tasks,
		Journal:            s.Journal,
		RecoveredPending:   s.RecoveredPending,
		RecoveredRunning:   s.RecoveredRunning,
		RecoveredCancelled: s.RecoveredCancelled,
		RecoveredTerminal:  s.RecoveredTerminal,
		Autotune:           s.Autotune,
		CacheEnabled:       s.CacheEnabled,
		CacheHits:          s.CacheHits,
		CacheMisses:        s.CacheMisses,
		CacheEvictions:     s.CacheEvictions,
		CacheBytes:         s.CacheBytes,
		CacheCapBytes:      s.CacheCapBytes,
		Degraded:           s.Degraded,
		DeadLetterTasks:    s.DeadLetterTasks,
		RetryMax:           s.RetryMax,
		RetryBackoffMS:     s.RetryBackoffMS,
		RecoveredClean:     s.RecoveredClean,
	}
	for _, b := range s.Breakers {
		out.Breakers = append(out.Breakers, BreakerState{
			Addr: b.Addr, State: b.State, Fails: b.Fails, Trips: b.Trips,
		})
	}
	for _, r := range s.AutotuneRoutes {
		out.AutotuneRoutes = append(out.AutotuneRoutes, AutotuneRoute{
			In: r.In, Out: r.Out, Kind: r.Kind,
			Streams:    r.Streams,
			SegSize:    r.SegSize,
			GoodputBps: r.GoodputBps,
			Samples:    r.Samples,
			State:      r.State,
		})
	}
	return out, nil
}

// Shutdown asks the daemon to exit.
func (c *Client) Shutdown() error {
	return c.simple(&proto.Request{Op: proto.OpShutdown})
}

// Health is the readiness probe: nil when the daemon accepts new work,
// an ErrUnavailable-matching error while it is draining or its journal
// is degraded (read-only).
func (c *Client) Health() error {
	return c.simple(&proto.Request{Op: proto.OpHealth})
}

// DeadLetterEntry is one quarantined task: it exhausted its retry
// budget and sits parked until an operator requeues or retires it.
type DeadLetterEntry struct {
	TaskID uint64
	// Attempts is how many execution attempts were consumed; Err is the
	// last failure message.
	Attempts uint64
	Err      string
}

// DeadLetterList reports the tasks currently quarantined in the
// dead-letter set, ordered by task ID.
func (c *Client) DeadLetterList() ([]DeadLetterEntry, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpDeadletterList})
	if err != nil {
		return nil, err
	}
	out := make([]DeadLetterEntry, 0, len(resp.DeadLetters))
	for _, dl := range resp.DeadLetters {
		out = append(out, DeadLetterEntry{TaskID: dl.TaskID, Attempts: dl.Attempts, Err: dl.Err})
	}
	return out, nil
}

// DeadLetterRequeue resubmits quarantined tasks as fresh submissions
// with reset retry budgets, returning the new task IDs. taskID 0
// sweeps the whole dead-letter set; a specific ID requeues that task
// alone (ErrNoSuchTask if it is not quarantined).
func (c *Client) DeadLetterRequeue(taskID uint64) ([]uint64, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpDeadletterRequeue, TaskID: taskID})
	if err != nil {
		return nil, err
	}
	return resp.TaskIDs, nil
}

// TransferMetrics is the daemon's observed-performance report.
type TransferMetrics struct {
	BandwidthBps float64
	Samples      uint64
	Pending      uint64
	Running      uint64
	Finished     uint64
	Failed       uint64
	Cancelled    uint64
	MovedBytes   int64
}

// TransferStats fetches observed transfer performance from the daemon,
// letting the scheduler refine staging estimates over time.
func (c *Client) TransferStats() (TransferMetrics, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpTransferStats})
	if err != nil {
		return TransferMetrics{}, err
	}
	if resp.Metrics == nil {
		return TransferMetrics{}, errors.New("nornsctl: response without metrics")
	}
	m := resp.Metrics
	return TransferMetrics{
		BandwidthBps: m.BandwidthBps,
		Samples:      m.Samples,
		Pending:      m.Pending,
		Running:      m.Running,
		Finished:     m.Finished,
		Failed:       m.Failed,
		Cancelled:    m.Cancelled,
		MovedBytes:   m.MovedBytes,
	}, nil
}

// RegisterDataspace mirrors nornsctl_register_dataspace.
func (c *Client) RegisterDataspace(def DataspaceDef) error {
	return c.simple(&proto.Request{Op: proto.OpRegisterDataspace, Dataspace: specOf(def)})
}

// UpdateDataspace mirrors nornsctl_update_dataspace.
func (c *Client) UpdateDataspace(def DataspaceDef) error {
	return c.simple(&proto.Request{Op: proto.OpUpdateDataspace, Dataspace: specOf(def)})
}

// UnregisterDataspace mirrors nornsctl_unregister_dataspace.
func (c *Client) UnregisterDataspace(id string) error {
	return c.simple(&proto.Request{Op: proto.OpUnregisterDataspace, Dataspace: &proto.DataspaceSpec{ID: id}})
}

// TrackDataspace toggles release-time emptiness tracking.
func (c *Client) TrackDataspace(id string, track bool) error {
	return c.simple(&proto.Request{Op: proto.OpTrackDataspace, Dataspace: &proto.DataspaceSpec{ID: id}, Track: track})
}

// TrackedNonEmpty returns tracked dataspaces that still hold data — the
// check Slurm runs before releasing a node.
func (c *Client) TrackedNonEmpty() ([]string, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpTrackedNonEmpty})
	if err != nil {
		return nil, err
	}
	return resp.NonEmpty, nil
}

func specOf(def DataspaceDef) *proto.DataspaceSpec {
	return &proto.DataspaceSpec{
		ID:       def.ID,
		Backend:  def.Backend,
		Mount:    def.Mount,
		Capacity: def.Capacity,
		Track:    def.Track,
	}
}

func jobSpecOf(def JobDef) *proto.JobSpec {
	js := &proto.JobSpec{ID: def.ID, Hosts: def.Hosts}
	for _, l := range def.Limits {
		js.Limits = append(js.Limits, proto.JobLimitSpec{Dataspace: l.Dataspace, Quota: l.Quota})
	}
	return js
}

// RegisterJob mirrors nornsctl_register_job.
func (c *Client) RegisterJob(def JobDef) error {
	return c.simple(&proto.Request{Op: proto.OpRegisterJob, Job: jobSpecOf(def)})
}

// UpdateJob mirrors nornsctl_update_job.
func (c *Client) UpdateJob(def JobDef) error {
	return c.simple(&proto.Request{Op: proto.OpUpdateJob, Job: jobSpecOf(def)})
}

// UnregisterJob mirrors nornsctl_unregister_job.
func (c *Client) UnregisterJob(id uint64) error {
	return c.simple(&proto.Request{Op: proto.OpUnregisterJob, Job: &proto.JobSpec{ID: id}})
}

// AddProcess mirrors nornsctl_add_process.
func (c *Client) AddProcess(jobID uint64, p ProcDef) error {
	return c.simple(&proto.Request{
		Op:   proto.OpAddProcess,
		Job:  &proto.JobSpec{ID: jobID},
		Proc: &proto.ProcSpec{PID: p.PID, UID: p.UID, GID: p.GID},
	})
}

// RemoveProcess mirrors nornsctl_remove_process.
func (c *Client) RemoveProcess(jobID uint64, p ProcDef) error {
	return c.simple(&proto.Request{
		Op:   proto.OpRemoveProcess,
		Job:  &proto.JobSpec{ID: jobID},
		Proc: &proto.ProcSpec{PID: p.PID, UID: p.UID, GID: p.GID},
	})
}

// SubmitOptions carries the optional knobs of a staging submission.
type SubmitOptions struct {
	JobID    uint64
	Priority int
	// DeadlineMS bounds the task's execution (0 = none).
	DeadlineMS int64
	// MaxBps caps the task's transfer bandwidth in bytes per second
	// (0 = none), layered under the daemon-wide governor.
	MaxBps int64
	// RetryMax overrides the daemon's default retry budget for this task
	// (0 = daemon default): transient transfer faults re-queue the task
	// with exponential backoff until the budget is spent, then it is
	// quarantined to the dead-letter set.
	RetryMax uint32
}

// Submit queues an administrative I/O task (staging), returning its ID.
func (c *Client) Submit(kind task.Kind, input, output task.Resource, jobID uint64, priority int) (uint64, error) {
	return c.SubmitTask(kind, input, output, SubmitOptions{JobID: jobID, Priority: priority})
}

// SubmitTask queues a staging task with the full option set.
func (c *Client) SubmitTask(kind task.Kind, input, output task.Resource, opts SubmitOptions) (uint64, error) {
	spec := &proto.TaskSpec{
		Kind:       uint32(kind),
		Input:      proto.FromResource(input),
		Output:     proto.FromResource(output),
		Priority:   int64(opts.Priority),
		JobID:      opts.JobID,
		DeadlineMS: opts.DeadlineMS,
		MaxBps:     opts.MaxBps,
		RetryMax:   opts.RetryMax,
	}
	return c.c.Submit(spec)
}

// Watch follows a task until it reaches a terminal state and returns
// the terminal stats — what `nornsctl watch` renders as a live
// progress line. fn, when non-nil, receives the task's latest snapshot
// at most once per interval while it changes, and always the terminal
// one. The watch rides a push subscription (a current-state snapshot,
// progress ticks at most every interval, and the terminal transition),
// so it costs zero status polls.
func (c *Client) Watch(taskID uint64, interval time.Duration, fn func(Stats)) (Stats, error) {
	return c.c.Watch(taskID, interval, fn)
}

// Wait blocks until the task terminates (timeout <= 0 waits forever)
// and returns its stats. An error matching ErrTimeout reports that the
// timeout elapsed first.
func (c *Client) Wait(taskID uint64, timeout time.Duration) (Stats, error) {
	return c.c.Wait(taskID, timeout)
}

// TaskStatus fetches a task's stats without blocking.
func (c *Client) TaskStatus(taskID uint64) (Stats, error) {
	return c.c.Status(taskID)
}

// Cancel aborts a task (the nornsctl_cancel admin control): pending
// tasks are cancelled immediately and their queue slot freed; running
// tasks are interrupted cooperatively at the next chunk boundary.
// The returned stats are the snapshot right after the request; use Wait
// to observe the terminal state of a running task.
func (c *Client) Cancel(taskID uint64) (Stats, error) {
	return c.c.Cancel(taskID)
}
