// Package proto defines the NORNS request/response protocol spoken
// between the norns/nornsctl API libraries and the urd daemon, encoded
// with the wire package (our Protocol Buffers substitute) and carried
// over AF_UNIX or TCP framed connections.
//
// A single Request/Response envelope with optional sub-messages keeps
// the protocol forward-compatible: unknown fields are skipped, exactly
// as in protobuf.
package proto

import (
	"fmt"

	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/wire"
)

// Op identifies a request type.
type Op uint32

// Request opcodes. Control-plane ops (those the paper restricts to the
// nornsctl socket) start at 64.
const (
	OpInvalid Op = iota
	// User API (norns_*).
	OpSubmit           // submit an I/O task
	OpWait             // wait for task completion
	OpTaskStatus       // norns_error: fetch task stats
	OpGetDataspaceInfo // list dataspaces visible to the calling job
	OpCancel           // norns_cancel: abort a pending or running task
	// v2 event-driven API: batch submission and server-push
	// subscriptions. A single OpSubmitBatch carries N TaskSpecs and
	// returns per-entry results (partial acceptance: one full shard
	// fails its entry with EAgain, not the batch). OpSubscribe
	// registers for unsolicited Event frames — task state transitions
	// and rate-limited progress ticks — pushed on the same connection
	// with Seq 0, so a subscribed client never polls OpTaskStatus.
	OpSubmitBatch
	OpSubscribe
	OpUnsubscribe
	// OpHealth is the readiness probe: Success when the daemon accepts
	// new work, EUnavailable while it is degraded (journal write failure)
	// or draining for shutdown. Liveness is the connection itself.
	OpHealth
)

// Control API (nornsctl_*). Anchored at 64 in their own block so adding
// user ops above never renumbers them on the wire.
const (
	OpPing Op = iota + 64
	OpStatus
	OpRegisterDataspace
	OpUpdateDataspace
	OpUnregisterDataspace
	OpTrackDataspace
	OpTrackedNonEmpty
	OpRegisterJob
	OpUpdateJob
	OpUnregisterJob
	OpAddProcess
	OpRemoveProcess
	OpShutdown
	// OpTransferStats reports the daemon's observed transfer performance
	// (the paper's future-work item: feeding I/O observations back to
	// the scheduler for better-informed decisions).
	OpTransferStats
	// OpDeadletterList reports quarantined tasks (retry budget exhausted);
	// OpDeadletterRequeue resubmits one (Request.TaskID) or all
	// (Request.TaskID == 0) of them as fresh tasks.
	OpDeadletterList
	OpDeadletterRequeue
)

// Control reports whether the op requires the control socket.
func (o Op) Control() bool { return o >= OpPing }

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpSubmit:
		return "submit"
	case OpWait:
		return "wait"
	case OpTaskStatus:
		return "task-status"
	case OpGetDataspaceInfo:
		return "get-dataspace-info"
	case OpCancel:
		return "cancel"
	case OpSubmitBatch:
		return "submit-batch"
	case OpSubscribe:
		return "subscribe"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpHealth:
		return "health"
	case OpPing:
		return "ping"
	case OpStatus:
		return "status"
	case OpRegisterDataspace:
		return "register-dataspace"
	case OpUpdateDataspace:
		return "update-dataspace"
	case OpUnregisterDataspace:
		return "unregister-dataspace"
	case OpTrackDataspace:
		return "track-dataspace"
	case OpTrackedNonEmpty:
		return "tracked-non-empty"
	case OpRegisterJob:
		return "register-job"
	case OpUpdateJob:
		return "update-job"
	case OpUnregisterJob:
		return "unregister-job"
	case OpAddProcess:
		return "add-process"
	case OpRemoveProcess:
		return "remove-process"
	case OpShutdown:
		return "shutdown"
	case OpTransferStats:
		return "transfer-stats"
	case OpDeadletterList:
		return "deadletter-list"
	case OpDeadletterRequeue:
		return "deadletter-requeue"
	default:
		return fmt.Sprintf("op(%d)", uint32(o))
	}
}

// StatusCode is the result of a request.
type StatusCode uint32

// Response status codes, mirroring the NORNS_* error space.
const (
	Success StatusCode = iota
	EBadRequest
	ENotFound
	EExists
	EPermission
	ETaskError
	ETimeout
	EInternal
	// EAgain is the backpressure signal: the daemon's task pipeline is at
	// its global in-flight limit (or a shard queue is full) and the client
	// should retry after backing off.
	EAgain
	// EUnavailable reports a daemon that is temporarily unable to accept
	// the request — degraded mode after a journal write failure, or
	// draining for shutdown. Like EAgain it is retryable, but signals a
	// daemon-wide condition rather than per-pipeline backpressure.
	EUnavailable
)

// statusNames is the one name table for status codes: String renders
// it and ParseStatusCode inverts it.
var statusNames = [...]string{
	Success:      "NORNS_SUCCESS",
	EBadRequest:  "NORNS_EBADREQUEST",
	ENotFound:    "NORNS_ENOTFOUND",
	EExists:      "NORNS_EEXISTS",
	EPermission:  "NORNS_EPERMISSION",
	ETaskError:   "NORNS_ETASKERROR",
	ETimeout:     "NORNS_ETIMEOUT",
	EInternal:    "NORNS_EINTERNAL",
	EAgain:       "NORNS_EAGAIN",
	EUnavailable: "NORNS_EUNAVAILABLE",
}

// String returns the code name.
func (s StatusCode) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("NORNS_E(%d)", uint32(s))
}

// ParseStatusCode parses a code name ("NORNS_EAGAIN") back to its code.
func ParseStatusCode(name string) (StatusCode, bool) {
	for code, n := range statusNames {
		if n == name {
			return StatusCode(code), true
		}
	}
	return EInternal, false
}

// ResourceSpec is the wire form of a task resource. For Memory
// resources the buffer travels inline, standing in for the
// process_vm_readv path of the C++ implementation.
type ResourceSpec struct {
	Kind      uint32
	Dataspace string
	Path      string
	Node      string
	Size      int64
	Data      []byte
}

// FromResource converts a task.Resource.
func FromResource(r task.Resource) ResourceSpec {
	return ResourceSpec{
		Kind:      uint32(r.Kind),
		Dataspace: r.Dataspace,
		Path:      r.Path,
		Node:      r.Node,
		Size:      r.Size,
		Data:      r.Data,
	}
}

// ToResource converts back to a task.Resource.
func (rs ResourceSpec) ToResource() task.Resource {
	return task.Resource{
		Kind:      task.ResourceKind(rs.Kind),
		Dataspace: rs.Dataspace,
		Path:      rs.Path,
		Node:      rs.Node,
		Size:      rs.Size,
		Data:      rs.Data,
	}
}

// MarshalWire implements wire.Marshaler.
func (rs *ResourceSpec) MarshalWire(e *wire.Encoder) {
	e.Uint32(1, rs.Kind)
	if rs.Dataspace != "" {
		e.String(2, rs.Dataspace)
	}
	if rs.Path != "" {
		e.String(3, rs.Path)
	}
	if rs.Node != "" {
		e.String(4, rs.Node)
	}
	if rs.Size != 0 {
		e.Int64(5, rs.Size)
	}
	if len(rs.Data) > 0 {
		e.Bytes(6, rs.Data)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (rs *ResourceSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			rs.Kind = d.Uint32()
		case 2:
			rs.Dataspace = d.String()
		case 3:
			rs.Path = d.String()
		case 4:
			rs.Node = d.String()
		case 5:
			rs.Size = d.Int64()
		case 6:
			rs.Data = append([]byte(nil), d.Bytes()...)
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// TaskSpec is the wire form of an I/O task submission.
type TaskSpec struct {
	Kind     uint32
	Input    ResourceSpec
	Output   ResourceSpec
	Priority int64
	JobID    uint64
	// DeadlineMS, when positive, bounds the task's execution to this many
	// milliseconds after the daemon accepts it; an expired deadline fails
	// the task as if cancelled by the system.
	DeadlineMS int64
	// MaxBps, when positive, caps this task's transfer bandwidth in
	// bytes per second, layered under the daemon-wide governor — the
	// per-task throttle of the paper's interference experiments.
	MaxBps int64
	// RetryMax, when positive, overrides the daemon's default retry
	// budget for this task: how many times a transient failure is retried
	// (with exponential backoff) before the task is quarantined in the
	// dead-letter state. Zero inherits the daemon default.
	RetryMax uint32
}

// MarshalWire implements wire.Marshaler.
func (ts *TaskSpec) MarshalWire(e *wire.Encoder) {
	e.Uint32(1, ts.Kind)
	e.Message(2, &ts.Input)
	e.Message(3, &ts.Output)
	if ts.Priority != 0 {
		e.Int64(4, ts.Priority)
	}
	if ts.JobID != 0 {
		e.Uint64(5, ts.JobID)
	}
	if ts.DeadlineMS != 0 {
		e.Int64(6, ts.DeadlineMS)
	}
	if ts.MaxBps != 0 {
		e.Int64(7, ts.MaxBps)
	}
	if ts.RetryMax != 0 {
		e.Uint32(8, ts.RetryMax)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (ts *TaskSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ts.Kind = d.Uint32()
		case 2:
			d.Message(&ts.Input)
		case 3:
			d.Message(&ts.Output)
		case 4:
			ts.Priority = d.Int64()
		case 5:
			ts.JobID = d.Uint64()
		case 6:
			ts.DeadlineMS = d.Int64()
		case 7:
			ts.MaxBps = d.Int64()
		case 8:
			ts.RetryMax = d.Uint32()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// DataspaceSpec describes a dataspace to register or report.
type DataspaceSpec struct {
	ID       string
	Backend  uint32 // dataspace.BackendKind
	Mount    string // OSFS root; empty selects an in-memory FS
	Capacity int64
	Track    bool
	// UsedBytes is filled in info responses.
	UsedBytes int64
}

// MarshalWire implements wire.Marshaler.
func (ds *DataspaceSpec) MarshalWire(e *wire.Encoder) {
	e.String(1, ds.ID)
	e.Uint32(2, ds.Backend)
	if ds.Mount != "" {
		e.String(3, ds.Mount)
	}
	if ds.Capacity != 0 {
		e.Int64(4, ds.Capacity)
	}
	if ds.Track {
		e.Bool(5, ds.Track)
	}
	if ds.UsedBytes != 0 {
		e.Int64(6, ds.UsedBytes)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (ds *DataspaceSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ds.ID = d.String()
		case 2:
			ds.Backend = d.Uint32()
		case 3:
			ds.Mount = d.String()
		case 4:
			ds.Capacity = d.Int64()
		case 5:
			ds.Track = d.Bool()
		case 6:
			ds.UsedBytes = d.Int64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// JobLimitSpec is one dataspace allowance in a job registration.
type JobLimitSpec struct {
	Dataspace string
	Quota     int64
}

// MarshalWire implements wire.Marshaler.
func (jl *JobLimitSpec) MarshalWire(e *wire.Encoder) {
	e.String(1, jl.Dataspace)
	if jl.Quota != 0 {
		e.Int64(2, jl.Quota)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (jl *JobLimitSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			jl.Dataspace = d.String()
		case 2:
			jl.Quota = d.Int64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// JobSpec is the wire form of a job registration.
type JobSpec struct {
	ID     uint64
	Hosts  []string
	Limits []JobLimitSpec
}

// MarshalWire implements wire.Marshaler.
func (js *JobSpec) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, js.ID)
	e.StringSlice(2, js.Hosts)
	for i := range js.Limits {
		e.Message(3, &js.Limits[i])
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (js *JobSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			js.ID = d.Uint64()
		case 2:
			js.Hosts = append(js.Hosts, d.String())
		case 3:
			var jl JobLimitSpec
			d.Message(&jl)
			js.Limits = append(js.Limits, jl)
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// ProcSpec is the wire form of a process registration.
type ProcSpec struct {
	PID uint64
	UID uint64
	GID uint64
}

// MarshalWire implements wire.Marshaler.
func (ps *ProcSpec) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, ps.PID)
	e.Uint64(2, ps.UID)
	e.Uint64(3, ps.GID)
}

// UnmarshalWire implements wire.Unmarshaler.
func (ps *ProcSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ps.PID = d.Uint64()
		case 2:
			ps.UID = d.Uint64()
		case 3:
			ps.GID = d.Uint64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// TaskStats is the wire form of task statistics. Since the segmented
// transfer engine it doubles as the live progress report: a status poll
// on a running task carries the bytes moved so far, the segment
// completion counts, and the observed transfer rate — what
// `nornsctl watch` renders.
type TaskStats struct {
	Status     uint32 // task.Status
	Err        string
	TotalBytes int64
	MovedBytes int64
	// SizeErr reports a failed up-front size probe (TotalBytes is then an
	// explicit 0 fallback, not a measurement).
	SizeErr string
	// SegmentsTotal/SegmentsDone report the transfer plan's segment
	// completion (0 total = unsegmented path).
	SegmentsTotal uint64
	SegmentsDone  uint64
	// BandwidthBps is the task's observed transfer rate at poll time.
	BandwidthBps float64
	// CacheBytes is the subset of MovedBytes served from the local
	// content-addressed staging cache; DeltaBytes counts bytes skipped
	// entirely because the destination already matched the remote's
	// per-segment digests.
	CacheBytes int64
	DeltaBytes int64
	// Attempts counts completed execution attempts that failed
	// transiently and were retried; 0 means the task ran (or will run)
	// on its first attempt.
	Attempts uint64
}

// FromStats converts task.Stats.
func FromStats(s task.Stats) TaskStats {
	return TaskStats{
		Status:        uint32(s.Status),
		Err:           s.Err,
		TotalBytes:    s.TotalBytes,
		MovedBytes:    s.MovedBytes,
		SizeErr:       s.SizeErr,
		SegmentsTotal: uint64(s.SegmentsTotal),
		SegmentsDone:  uint64(s.SegmentsDone),
		BandwidthBps:  s.BandwidthBps,
		CacheBytes:    s.CacheBytes,
		DeltaBytes:    s.DeltaBytes,
		Attempts:      s.Attempts,
	}
}

// MarshalWire implements wire.Marshaler.
func (st *TaskStats) MarshalWire(e *wire.Encoder) {
	e.Uint32(1, st.Status)
	if st.Err != "" {
		e.String(2, st.Err)
	}
	if st.TotalBytes != 0 {
		e.Int64(3, st.TotalBytes)
	}
	if st.MovedBytes != 0 {
		e.Int64(4, st.MovedBytes)
	}
	if st.SizeErr != "" {
		e.String(5, st.SizeErr)
	}
	if st.SegmentsTotal != 0 {
		e.Uint64(6, st.SegmentsTotal)
	}
	if st.SegmentsDone != 0 {
		e.Uint64(7, st.SegmentsDone)
	}
	if st.BandwidthBps != 0 {
		e.Float64(8, st.BandwidthBps)
	}
	if st.CacheBytes != 0 {
		e.Int64(9, st.CacheBytes)
	}
	if st.DeltaBytes != 0 {
		e.Int64(10, st.DeltaBytes)
	}
	if st.Attempts != 0 {
		e.Uint64(11, st.Attempts)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (st *TaskStats) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			st.Status = d.Uint32()
		case 2:
			st.Err = d.String()
		case 3:
			st.TotalBytes = d.Int64()
		case 4:
			st.MovedBytes = d.Int64()
		case 5:
			st.SizeErr = d.String()
		case 6:
			st.SegmentsTotal = d.Uint64()
		case 7:
			st.SegmentsDone = d.Uint64()
		case 8:
			st.BandwidthBps = d.Float64()
		case 9:
			st.CacheBytes = d.Int64()
		case 10:
			st.DeltaBytes = d.Int64()
		case 11:
			st.Attempts = d.Uint64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// SubmitResult is one entry's outcome in an OpSubmitBatch response.
// Acceptance is per entry: a full shard or an exhausted in-flight
// budget fails that entry with EAgain while the rest of the batch is
// queued normally.
type SubmitResult struct {
	TaskID uint64
	Status uint32 // StatusCode
	Error  string
}

// MarshalWire implements wire.Marshaler.
func (sr *SubmitResult) MarshalWire(e *wire.Encoder) {
	if sr.TaskID != 0 {
		e.Uint64(1, sr.TaskID)
	}
	e.Uint32(2, sr.Status)
	if sr.Error != "" {
		e.String(3, sr.Error)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (sr *SubmitResult) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			sr.TaskID = d.Uint64()
		case 2:
			sr.Status = d.Uint32()
		case 3:
			sr.Error = d.String()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// SubscribeSpec describes an event subscription: either an explicit
// task set or all tasks, with an optional per-task progress-tick rate.
type SubscribeSpec struct {
	// TaskIDs is the explicit task set. Subscribing to an explicit set
	// immediately enqueues a current-state snapshot event per task, so
	// a subscription opened after submission still observes tasks that
	// raced to a terminal state.
	TaskIDs []uint64
	// All subscribes to every task the daemon tracks, present and
	// future (TaskIDs is then ignored).
	All bool
	// ProgressMS, when positive, requests progress-tick events for
	// running tasks at most every this many milliseconds per task.
	// Zero delivers state transitions only.
	ProgressMS int64
	// TerminalOnly suppresses non-terminal state events (and their
	// subscribe-time snapshots): the subscriber receives progress ticks
	// (if requested) and exactly one terminal event per task. This is
	// what batch task handles ride on — under a deep backlog a task
	// otherwise pushes pending, running, AND terminal events, tripling
	// the push traffic for consumers that only resolve on the outcome.
	TerminalOnly bool
}

// MarshalWire implements wire.Marshaler.
func (ss *SubscribeSpec) MarshalWire(e *wire.Encoder) {
	e.Uint64Slice(1, ss.TaskIDs)
	if ss.All {
		e.Bool(2, ss.All)
	}
	if ss.ProgressMS != 0 {
		e.Int64(3, ss.ProgressMS)
	}
	if ss.TerminalOnly {
		e.Bool(4, ss.TerminalOnly)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (ss *SubscribeSpec) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ss.TaskIDs = append(ss.TaskIDs, d.Uint64())
		case 2:
			ss.All = d.Bool()
		case 3:
			ss.ProgressMS = d.Int64()
		case 4:
			ss.TerminalOnly = d.Bool()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// EventKind identifies what a push Event reports.
type EventKind uint32

// Event kinds. The numeric values are wire-stable.
const (
	// EvState is a task life-cycle transition (or the current-state
	// snapshot delivered at subscription time for explicit task sets).
	EvState EventKind = iota + 1
	// EvProgress is a rate-limited progress tick for a running task.
	EvProgress
	// EvGap reports that the subscriber's bounded queue overflowed and
	// Dropped events were coalesced away. Terminal transitions of
	// explicitly subscribed tasks are never dropped; an all-tasks
	// subscriber that sees a gap should reconcile by querying status.
	EvGap
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EvState:
		return "state"
	case EvProgress:
		return "progress"
	case EvGap:
		return "gap"
	default:
		return fmt.Sprintf("event(%d)", uint32(k))
	}
}

// Event is the server-push frame body: a task state transition, a
// throttled progress tick, or a queue-overflow gap marker, tagged with
// the subscription that produced it. Events travel inside a Response
// envelope with Seq 0 — a sequence number no Call ever uses — so a v1
// client's demultiplexer drops them cleanly instead of misdelivering.
type Event struct {
	SubID  uint64
	Kind   uint32 // EventKind
	TaskID uint64
	// Stats is the task snapshot for state and progress events, present
	// when HasStats is set. Inline (not a pointer) deliberately: events
	// are the highest-volume message on a busy connection, and a
	// pointer here cost one allocation at the hub and another at every
	// receiving client, per event. The wire encoding is unchanged.
	Stats    TaskStats
	HasStats bool
	// Dropped is the number of coalesced events for gap events.
	Dropped uint64
}

// MarshalWire implements wire.Marshaler.
func (ev *Event) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, ev.SubID)
	e.Uint32(2, ev.Kind)
	if ev.TaskID != 0 {
		e.Uint64(3, ev.TaskID)
	}
	if ev.HasStats {
		e.Message(4, &ev.Stats)
	}
	if ev.Dropped != 0 {
		e.Uint64(5, ev.Dropped)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (ev *Event) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ev.SubID = d.Uint64()
		case 2:
			ev.Kind = d.Uint32()
		case 3:
			ev.TaskID = d.Uint64()
		case 4:
			d.Message(&ev.Stats)
			ev.HasStats = true
		case 5:
			ev.Dropped = d.Uint64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// Request is the envelope for all client->daemon messages. Seq pairs
// pipelined requests with their responses on one connection.
type Request struct {
	Seq uint64
	Op  Op
	// PID identifies the calling process for authorization. The API
	// libraries fill it with os.Getpid(); a production deployment would
	// use SO_PEERCRED, which Go exposes only through x/sys, so the
	// credential travels in-band here.
	PID uint64

	Task      *TaskSpec
	TaskID    uint64
	TimeoutMS int64
	Dataspace *DataspaceSpec
	Job       *JobSpec
	Proc      *ProcSpec
	Track     bool
	// Tasks carries an OpSubmitBatch payload: N specs in one RPC.
	Tasks []TaskSpec
	// Subscribe carries an OpSubscribe registration.
	Subscribe *SubscribeSpec
	// SubID names the subscription for OpUnsubscribe.
	SubID uint64
}

// MarshalWire implements wire.Marshaler.
func (r *Request) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, r.Seq)
	e.Uint32(2, uint32(r.Op))
	if r.PID != 0 {
		e.Uint64(3, r.PID)
	}
	if r.Task != nil {
		e.Message(4, r.Task)
	}
	if r.TaskID != 0 {
		e.Uint64(5, r.TaskID)
	}
	if r.TimeoutMS != 0 {
		e.Int64(6, r.TimeoutMS)
	}
	if r.Dataspace != nil {
		e.Message(7, r.Dataspace)
	}
	if r.Job != nil {
		e.Message(8, r.Job)
	}
	if r.Proc != nil {
		e.Message(9, r.Proc)
	}
	if r.Track {
		e.Bool(10, r.Track)
	}
	if len(r.Tasks) > 0 {
		// The count travels ahead of the specs so the decoder can size
		// the slice once instead of growing it per entry; old decoders
		// skip the unknown tag.
		e.Uint64(14, uint64(len(r.Tasks)))
	}
	for i := range r.Tasks {
		e.Message(11, &r.Tasks[i])
	}
	if r.Subscribe != nil {
		e.Message(12, r.Subscribe)
	}
	if r.SubID != 0 {
		e.Uint64(13, r.SubID)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *Request) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Seq = d.Uint64()
		case 2:
			r.Op = Op(d.Uint32())
		case 3:
			r.PID = d.Uint64()
		case 4:
			r.Task = new(TaskSpec)
			d.Message(r.Task)
		case 5:
			r.TaskID = d.Uint64()
		case 6:
			r.TimeoutMS = d.Int64()
		case 7:
			r.Dataspace = new(DataspaceSpec)
			d.Message(r.Dataspace)
		case 8:
			r.Job = new(JobSpec)
			d.Message(r.Job)
		case 9:
			r.Proc = new(ProcSpec)
			d.Message(r.Proc)
		case 10:
			r.Track = d.Bool()
		case 11:
			// Decode straight into the slice slot — no per-entry escape
			// to the heap, and the tag-14 count hint (when present) has
			// already sized the backing array.
			r.Tasks = append(r.Tasks, TaskSpec{})
			d.Message(&r.Tasks[len(r.Tasks)-1])
		case 12:
			r.Subscribe = new(SubscribeSpec)
			d.Message(r.Subscribe)
		case 13:
			r.SubID = d.Uint64()
		case 14:
			// Capacity hint only — the entries themselves arrive as
			// repeated tag-11 fields. Clamped against the bytes actually
			// remaining in the frame (an encoded TaskSpec costs at least
			// a couple of bytes), so a tiny hostile frame cannot command
			// a multi-megabyte pre-allocation.
			if n := d.Uint64(); r.Tasks == nil && n > 0 && n <= uint64(d.Remaining()/2) {
				r.Tasks = make([]TaskSpec, 0, n)
			}
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// TransferMetrics is the daemon's observed transfer performance report.
type TransferMetrics struct {
	// BandwidthBps is the EWMA of observed transfer bandwidth.
	BandwidthBps float64
	// Samples is the number of completed transfers observed.
	Samples uint64
	// Pending is the task-queue depth.
	Pending uint64
	// Running/Finished/Failed/Cancelled count tasks by state.
	Running   uint64
	Finished  uint64
	Failed    uint64
	Cancelled uint64
	// MovedBytes is the total payload volume transferred, including the
	// partial progress of failed and cancelled tasks.
	MovedBytes int64
}

// MarshalWire implements wire.Marshaler.
func (tm *TransferMetrics) MarshalWire(e *wire.Encoder) {
	e.Float64(1, tm.BandwidthBps)
	e.Uint64(2, tm.Samples)
	e.Uint64(3, tm.Pending)
	e.Uint64(4, tm.Running)
	e.Uint64(5, tm.Finished)
	e.Uint64(6, tm.Failed)
	if tm.MovedBytes != 0 {
		e.Int64(7, tm.MovedBytes)
	}
	if tm.Cancelled != 0 {
		e.Uint64(8, tm.Cancelled)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (tm *TransferMetrics) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			tm.BandwidthBps = d.Float64()
		case 2:
			tm.Samples = d.Uint64()
		case 3:
			tm.Pending = d.Uint64()
		case 4:
			tm.Running = d.Uint64()
		case 5:
			tm.Finished = d.Uint64()
		case 6:
			tm.Failed = d.Uint64()
		case 7:
			tm.MovedBytes = d.Int64()
		case 8:
			tm.Cancelled = d.Uint64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// AutotuneRoute is one row of the daemon's transfer-tuning table: the
// route, its current operating point, and how the controller got there.
type AutotuneRoute struct {
	// In/Out name the route's endpoints (dataspace IDs, node-prefixed
	// for remote ends); Kind is the resource-pair, e.g.
	// "local-path>local-path".
	In, Out, Kind string
	// Streams/SegSize are the route's current operating point.
	Streams uint32
	SegSize int64
	// GoodputBps is the EWMA goodput observed at the operating point.
	GoodputBps float64
	// Samples counts all observations on the route.
	Samples uint64
	// State is the controller state: seeding, probing, settled, capped.
	State string
}

// MarshalWire implements wire.Marshaler.
func (ar *AutotuneRoute) MarshalWire(e *wire.Encoder) {
	e.String(1, ar.In)
	e.String(2, ar.Out)
	e.String(3, ar.Kind)
	e.Uint32(4, ar.Streams)
	e.Int64(5, ar.SegSize)
	e.Float64(6, ar.GoodputBps)
	e.Uint64(7, ar.Samples)
	e.String(8, ar.State)
}

// UnmarshalWire implements wire.Unmarshaler.
func (ar *AutotuneRoute) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ar.In = d.String()
		case 2:
			ar.Out = d.String()
		case 3:
			ar.Kind = d.String()
		case 4:
			ar.Streams = d.Uint32()
		case 5:
			ar.SegSize = d.Int64()
		case 6:
			ar.GoodputBps = d.Float64()
		case 7:
			ar.Samples = d.Uint64()
		case 8:
			ar.State = d.String()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// BreakerState is one row of the fabric circuit-breaker table: the
// health of one remote endpoint address as the mercury layer sees it.
type BreakerState struct {
	// Addr is the remote endpoint address the breaker guards.
	Addr string
	// State is the breaker state: closed (healthy), open (tripped,
	// fast-failing), or half-open (cooldown elapsed, probing).
	State string
	// Fails is the current consecutive-failure count; Trips counts how
	// many times the breaker has opened over its lifetime.
	Fails uint64
	Trips uint64
}

// MarshalWire implements wire.Marshaler.
func (bs *BreakerState) MarshalWire(e *wire.Encoder) {
	e.String(1, bs.Addr)
	e.String(2, bs.State)
	if bs.Fails != 0 {
		e.Uint64(3, bs.Fails)
	}
	if bs.Trips != 0 {
		e.Uint64(4, bs.Trips)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (bs *BreakerState) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			bs.Addr = d.String()
		case 2:
			bs.State = d.String()
		case 3:
			bs.Fails = d.Uint64()
		case 4:
			bs.Trips = d.Uint64()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// DeadLetterEntry is one quarantined task in an OpDeadletterList
// response: enough to decide whether to requeue it.
type DeadLetterEntry struct {
	TaskID uint64
	// Attempts is how many execution attempts were consumed before
	// quarantine; Err is the last failure.
	Attempts uint64
	Err      string
}

// MarshalWire implements wire.Marshaler.
func (dl *DeadLetterEntry) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, dl.TaskID)
	if dl.Attempts != 0 {
		e.Uint64(2, dl.Attempts)
	}
	if dl.Err != "" {
		e.String(3, dl.Err)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (dl *DeadLetterEntry) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			dl.TaskID = d.Uint64()
		case 2:
			dl.Attempts = d.Uint64()
		case 3:
			dl.Err = d.String()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// DaemonStatus is the structured OpStatus report: daemon identity, the
// pipeline's live gauges, and — when the daemon runs with a durable
// state directory — what the last journal replay recovered.
type DaemonStatus struct {
	Version string
	Node    string
	Policy  string
	Shards  uint64
	Pending uint64
	Tasks   uint64
	// Journal reports whether the daemon persists a task journal.
	Journal bool
	// RecoveredPending/RecoveredRunning count tasks the last restart
	// re-queued from the journal (pending, respectively running, at the
	// crash). RecoveredCancelled were mid-cancellation and recovered
	// straight to cancelled; RecoveredTerminal were already terminal and
	// were resurrected for status queries without re-running.
	RecoveredPending   uint64
	RecoveredRunning   uint64
	RecoveredCancelled uint64
	RecoveredTerminal  uint64
	// Autotune reports whether the per-route transfer tuner is enabled;
	// AutotuneRoutes is its table (routes the daemon has moved data on).
	Autotune       bool
	AutotuneRoutes []AutotuneRoute
	// CacheEnabled reports whether the content-addressed staging cache
	// is configured; the gauges below are its lifetime counters.
	CacheEnabled   bool
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// CacheBytes/CacheCapBytes are the cache's current footprint and its
	// configured size bound.
	CacheBytes    int64
	CacheCapBytes int64
	// Degraded reports journal degrade mode: the WAL hit a write error
	// and the daemon is shedding new submissions with EUnavailable until
	// the journal becomes writable again.
	Degraded bool
	// DeadLetterTasks counts tasks currently quarantined after
	// exhausting their retry budget.
	DeadLetterTasks uint64
	// RetryMax/RetryBackoffMS are the daemon's default retry policy
	// (0 retries = disabled).
	RetryMax       uint64
	RetryBackoffMS int64
	// Breakers is the fabric circuit-breaker table, one row per remote
	// endpoint address the daemon has dialed.
	Breakers []BreakerState
	// RecoveredClean reports that the last journal replay found the
	// clean-shutdown marker: the previous daemon drained and flushed
	// everything, so replay re-copied nothing.
	RecoveredClean bool
}

// MarshalWire implements wire.Marshaler.
func (ds *DaemonStatus) MarshalWire(e *wire.Encoder) {
	e.String(1, ds.Version)
	e.String(2, ds.Node)
	e.String(3, ds.Policy)
	e.Uint64(4, ds.Shards)
	e.Uint64(5, ds.Pending)
	e.Uint64(6, ds.Tasks)
	if ds.Journal {
		e.Bool(7, ds.Journal)
	}
	if ds.RecoveredPending != 0 {
		e.Uint64(8, ds.RecoveredPending)
	}
	if ds.RecoveredRunning != 0 {
		e.Uint64(9, ds.RecoveredRunning)
	}
	if ds.RecoveredCancelled != 0 {
		e.Uint64(10, ds.RecoveredCancelled)
	}
	if ds.RecoveredTerminal != 0 {
		e.Uint64(11, ds.RecoveredTerminal)
	}
	if ds.Autotune {
		e.Bool(12, ds.Autotune)
	}
	if len(ds.AutotuneRoutes) > 0 {
		// Count hint ahead of the rows, same contract as Request.Tasks:
		// the decoder sizes the slice once, old decoders skip the tag.
		e.Uint64(14, uint64(len(ds.AutotuneRoutes)))
	}
	for i := range ds.AutotuneRoutes {
		e.Message(13, &ds.AutotuneRoutes[i])
	}
	if ds.CacheEnabled {
		e.Bool(15, ds.CacheEnabled)
	}
	if ds.CacheHits != 0 {
		e.Uint64(16, ds.CacheHits)
	}
	if ds.CacheMisses != 0 {
		e.Uint64(17, ds.CacheMisses)
	}
	if ds.CacheEvictions != 0 {
		e.Uint64(18, ds.CacheEvictions)
	}
	if ds.CacheBytes != 0 {
		e.Int64(19, ds.CacheBytes)
	}
	if ds.CacheCapBytes != 0 {
		e.Int64(20, ds.CacheCapBytes)
	}
	if ds.Degraded {
		e.Bool(21, ds.Degraded)
	}
	if ds.DeadLetterTasks != 0 {
		e.Uint64(22, ds.DeadLetterTasks)
	}
	if ds.RetryMax != 0 {
		e.Uint64(23, ds.RetryMax)
	}
	if ds.RetryBackoffMS != 0 {
		e.Int64(24, ds.RetryBackoffMS)
	}
	if len(ds.Breakers) > 0 {
		// Count hint ahead of the rows, same contract as the autotune
		// table above.
		e.Uint64(26, uint64(len(ds.Breakers)))
	}
	for i := range ds.Breakers {
		e.Message(25, &ds.Breakers[i])
	}
	if ds.RecoveredClean {
		e.Bool(27, ds.RecoveredClean)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (ds *DaemonStatus) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			ds.Version = d.String()
		case 2:
			ds.Node = d.String()
		case 3:
			ds.Policy = d.String()
		case 4:
			ds.Shards = d.Uint64()
		case 5:
			ds.Pending = d.Uint64()
		case 6:
			ds.Tasks = d.Uint64()
		case 7:
			ds.Journal = d.Bool()
		case 8:
			ds.RecoveredPending = d.Uint64()
		case 9:
			ds.RecoveredRunning = d.Uint64()
		case 10:
			ds.RecoveredCancelled = d.Uint64()
		case 11:
			ds.RecoveredTerminal = d.Uint64()
		case 12:
			ds.Autotune = d.Bool()
		case 13:
			ds.AutotuneRoutes = append(ds.AutotuneRoutes, AutotuneRoute{})
			d.Message(&ds.AutotuneRoutes[len(ds.AutotuneRoutes)-1])
		case 14:
			// Capacity hint only; clamped against the frame's remaining
			// bytes so a hostile count cannot command the allocation.
			if n := d.Uint64(); ds.AutotuneRoutes == nil && n > 0 && n <= uint64(d.Remaining()/2) {
				ds.AutotuneRoutes = make([]AutotuneRoute, 0, n)
			}
		case 15:
			ds.CacheEnabled = d.Bool()
		case 16:
			ds.CacheHits = d.Uint64()
		case 17:
			ds.CacheMisses = d.Uint64()
		case 18:
			ds.CacheEvictions = d.Uint64()
		case 19:
			ds.CacheBytes = d.Int64()
		case 20:
			ds.CacheCapBytes = d.Int64()
		case 21:
			ds.Degraded = d.Bool()
		case 22:
			ds.DeadLetterTasks = d.Uint64()
		case 23:
			ds.RetryMax = d.Uint64()
		case 24:
			ds.RetryBackoffMS = d.Int64()
		case 25:
			ds.Breakers = append(ds.Breakers, BreakerState{})
			d.Message(&ds.Breakers[len(ds.Breakers)-1])
		case 26:
			// Capacity hint only, clamped like the autotune one.
			if n := d.Uint64(); ds.Breakers == nil && n > 0 && n <= uint64(d.Remaining()/2) {
				ds.Breakers = make([]BreakerState, 0, n)
			}
		case 27:
			ds.RecoveredClean = d.Bool()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

// Response is the envelope for all daemon->client messages.
type Response struct {
	Seq    uint64
	Status StatusCode
	Error  string

	TaskID     uint64
	Stats      *TaskStats
	Dataspaces []DataspaceSpec
	// NonEmpty lists tracked dataspaces still holding data.
	NonEmpty []string
	// DaemonInfo carries status text for OpStatus.
	DaemonInfo string
	// Metrics carries the OpTransferStats report.
	Metrics *TransferMetrics
	// StatusInfo carries the structured OpStatus report; DaemonInfo
	// carries its one-line text form.
	StatusInfo *DaemonStatus
	// Results carries the per-entry outcomes of an OpSubmitBatch,
	// aligned with the request's Tasks slice.
	Results []SubmitResult
	// SubID identifies the subscription created by OpSubscribe.
	SubID uint64
	// Event is the server-push payload. It only appears in unsolicited
	// frames (Seq 0), never in a direct response.
	// Event is the push payload (HasEvent set), inline for the same
	// per-event allocation reason as Event.Stats.
	Event    Event
	HasEvent bool
	// DeadLetters carries the OpDeadletterList report; for
	// OpDeadletterRequeue, TaskIDs lists the fresh task IDs created.
	DeadLetters []DeadLetterEntry
	TaskIDs     []uint64
}

// MarshalWire implements wire.Marshaler.
func (r *Response) MarshalWire(e *wire.Encoder) {
	e.Uint64(1, r.Seq)
	e.Uint32(2, uint32(r.Status))
	if r.Error != "" {
		e.String(3, r.Error)
	}
	if r.TaskID != 0 {
		e.Uint64(4, r.TaskID)
	}
	if r.Stats != nil {
		e.Message(5, r.Stats)
	}
	for i := range r.Dataspaces {
		e.Message(6, &r.Dataspaces[i])
	}
	e.StringSlice(7, r.NonEmpty)
	if r.DaemonInfo != "" {
		e.String(8, r.DaemonInfo)
	}
	if r.Metrics != nil {
		e.Message(9, r.Metrics)
	}
	if r.StatusInfo != nil {
		e.Message(10, r.StatusInfo)
	}
	if len(r.Results) > 0 {
		// Count hint ahead of the entries so the decoder sizes the slice
		// once (same convention as Request tag 14); old decoders skip it.
		e.Uint64(14, uint64(len(r.Results)))
	}
	for i := range r.Results {
		e.Message(11, &r.Results[i])
	}
	if r.SubID != 0 {
		e.Uint64(12, r.SubID)
	}
	if r.HasEvent {
		e.Message(13, &r.Event)
	}
	if len(r.DeadLetters) > 0 {
		// Count hint ahead of the rows (same convention as tag 14).
		e.Uint64(16, uint64(len(r.DeadLetters)))
	}
	for i := range r.DeadLetters {
		e.Message(15, &r.DeadLetters[i])
	}
	e.Uint64Slice(17, r.TaskIDs)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *Response) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Seq = d.Uint64()
		case 2:
			r.Status = StatusCode(d.Uint32())
		case 3:
			r.Error = d.String()
		case 4:
			r.TaskID = d.Uint64()
		case 5:
			r.Stats = new(TaskStats)
			d.Message(r.Stats)
		case 6:
			var ds DataspaceSpec
			d.Message(&ds)
			r.Dataspaces = append(r.Dataspaces, ds)
		case 7:
			r.NonEmpty = append(r.NonEmpty, d.String())
		case 8:
			r.DaemonInfo = d.String()
		case 9:
			r.Metrics = new(TransferMetrics)
			d.Message(r.Metrics)
		case 10:
			r.StatusInfo = new(DaemonStatus)
			d.Message(r.StatusInfo)
		case 11:
			// In-place decode, presized by the tag-14 count hint.
			r.Results = append(r.Results, SubmitResult{})
			d.Message(&r.Results[len(r.Results)-1])
		case 12:
			r.SubID = d.Uint64()
		case 13:
			d.Message(&r.Event)
			r.HasEvent = true
		case 14:
			// Clamped like Request's hint: no allocation beyond what the
			// remaining frame bytes could actually encode.
			if n := d.Uint64(); r.Results == nil && n > 0 && n <= uint64(d.Remaining()/2) {
				r.Results = make([]SubmitResult, 0, n)
			}
		case 15:
			r.DeadLetters = append(r.DeadLetters, DeadLetterEntry{})
			d.Message(&r.DeadLetters[len(r.DeadLetters)-1])
		case 16:
			if n := d.Uint64(); r.DeadLetters == nil && n > 0 && n <= uint64(d.Remaining()/2) {
				r.DeadLetters = make([]DeadLetterEntry, 0, n)
			}
		case 17:
			r.TaskIDs = append(r.TaskIDs, d.Uint64())
		default:
			d.Skip()
		}
	}
	return d.Err()
}
