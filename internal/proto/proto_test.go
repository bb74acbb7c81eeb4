package proto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/wire"
)

func roundTripRequest(t *testing.T, in *Request) *Request {
	t.Helper()
	var out Request
	if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return &out
}

func roundTripResponse(t *testing.T, in *Response) *Response {
	t.Helper()
	var out Response
	if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return &out
}

func TestSubmitRequestRoundTrip(t *testing.T) {
	in := &Request{
		Seq: 7,
		Op:  OpSubmit,
		PID: 1234,
		Task: &TaskSpec{
			Kind:     uint32(task.Copy),
			Input:    FromResource(task.MemoryRegion([]byte("payload"))),
			Output:   FromResource(task.PosixPath("nvme0://", "out/x")),
			Priority: -3,
			JobID:    42,
		},
	}
	out := roundTripRequest(t, in)
	if out.Seq != 7 || out.Op != OpSubmit || out.PID != 1234 {
		t.Fatalf("envelope mismatch: %+v", out)
	}
	if out.Task == nil {
		t.Fatal("Task dropped")
	}
	if out.Task.Kind != uint32(task.Copy) || out.Task.Priority != -3 || out.Task.JobID != 42 {
		t.Fatalf("task mismatch: %+v", out.Task)
	}
	if !bytes.Equal(out.Task.Input.Data, []byte("payload")) {
		t.Fatalf("input data mismatch: %q", out.Task.Input.Data)
	}
	if out.Task.Output.Dataspace != "nvme0://" || out.Task.Output.Path != "out/x" {
		t.Fatalf("output mismatch: %+v", out.Task.Output)
	}
}

func TestResourceSpecConversion(t *testing.T) {
	orig := task.RemotePosixPath("node3", "pmdk0://", "a/b")
	rs := FromResource(orig)
	back := rs.ToResource()
	if back.Kind != orig.Kind || back.Node != orig.Node ||
		back.Dataspace != orig.Dataspace || back.Path != orig.Path || back.Size != orig.Size {
		t.Fatalf("ToResource(FromResource(r)) = %+v, want %+v", back, orig)
	}
}

func TestJobRequestRoundTrip(t *testing.T) {
	in := &Request{
		Seq: 1,
		Op:  OpRegisterJob,
		Job: &JobSpec{
			ID:    9,
			Hosts: []string{"n1", "n2", "n3"},
			Limits: []JobLimitSpec{
				{Dataspace: "nvme0://", Quota: 1 << 30},
				{Dataspace: "lustre://"},
			},
		},
	}
	out := roundTripRequest(t, in)
	if out.Job == nil || out.Job.ID != 9 || len(out.Job.Hosts) != 3 || len(out.Job.Limits) != 2 {
		t.Fatalf("job mismatch: %+v", out.Job)
	}
	if out.Job.Limits[0].Quota != 1<<30 || out.Job.Limits[1].Dataspace != "lustre://" {
		t.Fatalf("limits mismatch: %+v", out.Job.Limits)
	}
}

func TestDataspaceRequestRoundTrip(t *testing.T) {
	in := &Request{
		Op: OpRegisterDataspace,
		Dataspace: &DataspaceSpec{
			ID: "nvme0://", Backend: 2, Mount: "/mnt/pmem0", Capacity: 3 << 40, Track: true,
		},
	}
	out := roundTripRequest(t, in)
	ds := out.Dataspace
	if ds == nil || ds.ID != "nvme0://" || ds.Backend != 2 || ds.Mount != "/mnt/pmem0" ||
		ds.Capacity != 3<<40 || !ds.Track {
		t.Fatalf("dataspace mismatch: %+v", ds)
	}
}

func TestProcRequestRoundTrip(t *testing.T) {
	in := &Request{Op: OpAddProcess, Proc: &ProcSpec{PID: 100, UID: 1000, GID: 2000}, Job: &JobSpec{ID: 5}}
	out := roundTripRequest(t, in)
	if out.Proc == nil || out.Proc.PID != 100 || out.Proc.UID != 1000 || out.Proc.GID != 2000 {
		t.Fatalf("proc mismatch: %+v", out.Proc)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := &Response{
		Seq:    11,
		Status: ETaskError,
		Error:  "transfer failed",
		TaskID: 77,
		Stats: &TaskStats{
			Status: uint32(task.Failed), Err: "io error", TotalBytes: 100, MovedBytes: 40,
		},
		Dataspaces: []DataspaceSpec{{ID: "a://", UsedBytes: 5}, {ID: "b://"}},
		NonEmpty:   []string{"a://"},
		DaemonInfo: "urd 1.0",
	}
	out := roundTripResponse(t, in)
	if out.Seq != 11 || out.Status != ETaskError || out.Error != "transfer failed" || out.TaskID != 77 {
		t.Fatalf("envelope mismatch: %+v", out)
	}
	if out.Stats == nil || out.Stats.MovedBytes != 40 || out.Stats.Err != "io error" {
		t.Fatalf("stats mismatch: %+v", out.Stats)
	}
	if len(out.Dataspaces) != 2 || out.Dataspaces[0].UsedBytes != 5 {
		t.Fatalf("dataspaces mismatch: %+v", out.Dataspaces)
	}
	if len(out.NonEmpty) != 1 || out.NonEmpty[0] != "a://" {
		t.Fatalf("nonEmpty mismatch: %v", out.NonEmpty)
	}
	if out.DaemonInfo != "urd 1.0" {
		t.Fatalf("daemonInfo mismatch: %q", out.DaemonInfo)
	}
}

func TestFromStats(t *testing.T) {
	s := task.Stats{Status: task.Finished, TotalBytes: 10, MovedBytes: 10}
	ts := FromStats(s)
	if ts.Status != uint32(task.Finished) || ts.TotalBytes != 10 || ts.MovedBytes != 10 {
		t.Fatalf("FromStats = %+v", ts)
	}
}

func TestOpControl(t *testing.T) {
	for _, o := range []Op{OpSubmit, OpWait, OpTaskStatus, OpGetDataspaceInfo} {
		if o.Control() {
			t.Errorf("%v misclassified as control", o)
		}
	}
	for _, o := range []Op{OpPing, OpRegisterDataspace, OpRegisterJob, OpShutdown} {
		if !o.Control() {
			t.Errorf("%v misclassified as user", o)
		}
	}
}

func TestOpStrings(t *testing.T) {
	if OpSubmit.String() != "submit" || OpPing.String() != "ping" || Op(9999).String() == "" {
		t.Fatal("op strings wrong")
	}
	if Success.String() != "NORNS_SUCCESS" || ETimeout.String() != "NORNS_ETIMEOUT" {
		t.Fatal("status strings wrong")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(seq, pid, taskID uint64, op uint32, timeout int64, track bool) bool {
		in := &Request{Seq: seq, Op: Op(op), PID: pid, TaskID: taskID, TimeoutMS: timeout, Track: track}
		var out Request
		if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
			return false
		}
		return out.Seq == seq && out.Op == Op(op) && out.PID == pid &&
			out.TaskID == taskID && out.TimeoutMS == timeout && out.Track == track
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMessages(t *testing.T) {
	out := roundTripRequest(t, &Request{})
	if out.Op != OpInvalid || out.Task != nil || out.Job != nil {
		t.Fatalf("empty request round trip: %+v", out)
	}
	resp := roundTripResponse(t, &Response{})
	if resp.Status != Success || resp.Stats != nil {
		t.Fatalf("empty response round trip: %+v", resp)
	}
}

func TestCancelRequestRoundTrip(t *testing.T) {
	in := &Request{Seq: 3, Op: OpCancel, PID: 77, TaskID: 12}
	out := roundTripRequest(t, in)
	if out.Op != OpCancel || out.TaskID != 12 {
		t.Fatalf("cancel request mismatch: %+v", out)
	}
	if OpCancel.Control() {
		t.Fatal("OpCancel misclassified as control-only")
	}
	if OpCancel.String() != "cancel" {
		t.Fatalf("OpCancel.String() = %q", OpCancel.String())
	}
}

func TestDeadlineAndSizeErrRoundTrip(t *testing.T) {
	in := &Request{
		Op: OpSubmit,
		Task: &TaskSpec{
			Kind:       uint32(task.Copy),
			Input:      FromResource(task.PosixPath("a://", "p")),
			Output:     FromResource(task.PosixPath("b://", "q")),
			DeadlineMS: 1500,
		},
	}
	out := roundTripRequest(t, in)
	if out.Task == nil || out.Task.DeadlineMS != 1500 {
		t.Fatalf("deadline mismatch: %+v", out.Task)
	}
	resp := roundTripResponse(t, &Response{
		Status: Success,
		Stats: &TaskStats{
			Status: uint32(task.Cancelled), MovedBytes: 7, SizeErr: "stat: missing",
		},
		Metrics: &TransferMetrics{Cancelled: 4, MovedBytes: 99},
	})
	if resp.Stats == nil || resp.Stats.SizeErr != "stat: missing" {
		t.Fatalf("SizeErr mismatch: %+v", resp.Stats)
	}
	if resp.Metrics == nil || resp.Metrics.Cancelled != 4 {
		t.Fatalf("metrics mismatch: %+v", resp.Metrics)
	}
	if EAgain.String() != "NORNS_EAGAIN" {
		t.Fatalf("EAgain.String() = %q", EAgain.String())
	}
}

func TestDaemonStatusRoundTrip(t *testing.T) {
	in := &Response{
		Status:     Success,
		DaemonInfo: "urd/2.0 node=n1",
		StatusInfo: &DaemonStatus{
			Version:            "urd/2.0",
			Node:               "n1",
			Policy:             "sjf",
			Shards:             3,
			Pending:            12,
			Tasks:              40,
			Journal:            true,
			RecoveredPending:   2,
			RecoveredRunning:   1,
			RecoveredCancelled: 4,
			RecoveredTerminal:  9,
			Autotune:           true,
			AutotuneRoutes: []AutotuneRoute{
				{In: "lustre://", Out: "nvme0://", Kind: "local-path>local-path",
					Streams: 8, SegSize: 16 << 20, GoodputBps: 1.5e9, Samples: 12, State: "settled"},
				{In: "node2/lustre://", Out: "nvme0://", Kind: "remote-path>local-path",
					Streams: 4, SegSize: 8 << 20, GoodputBps: 2.5e8, Samples: 3, State: "probing"},
			},
		},
	}
	out := roundTripResponse(t, in)
	if out.StatusInfo == nil {
		t.Fatal("StatusInfo dropped")
	}
	if !reflect.DeepEqual(*out.StatusInfo, *in.StatusInfo) {
		t.Fatalf("status info mismatch:\n got %+v\nwant %+v", *out.StatusInfo, *in.StatusInfo)
	}
	// Without a journal the recovery fields stay zero and the message
	// still round-trips.
	lean := roundTripResponse(t, &Response{StatusInfo: &DaemonStatus{Version: "urd/2.0", Node: "n2", Policy: "fcfs"}})
	if lean.StatusInfo == nil || lean.StatusInfo.Journal || lean.StatusInfo.RecoveredPending != 0 {
		t.Fatalf("lean status info mismatch: %+v", lean.StatusInfo)
	}
}

func TestSubmitBatchRequestRoundTrip(t *testing.T) {
	in := &Request{
		Op:  OpSubmitBatch,
		PID: 42,
		Tasks: []TaskSpec{
			{Kind: uint32(task.Copy),
				Input:  ResourceSpec{Kind: uint32(task.LocalPath), Dataspace: "lustre://", Path: "in0"},
				Output: ResourceSpec{Kind: uint32(task.LocalPath), Dataspace: "nvme0://", Path: "out0"}},
			{Kind: uint32(task.Move), Priority: 3, JobID: 7, DeadlineMS: 1500, MaxBps: 1 << 20,
				Input:  ResourceSpec{Kind: uint32(task.RemotePath), Node: "n2", Dataspace: "l://", Path: "in1"},
				Output: ResourceSpec{Kind: uint32(task.LocalPath), Dataspace: "nvme0://", Path: "out1"}},
		},
	}
	out := roundTripRequest(t, in)
	if len(out.Tasks) != 2 {
		t.Fatalf("Tasks = %d entries", len(out.Tasks))
	}
	if out.Tasks[0].Input.Path != "in0" || out.Tasks[1].MaxBps != 1<<20 || out.Tasks[1].Input.Node != "n2" {
		t.Fatalf("tasks mismatch: %+v", out.Tasks)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	in := &Response{
		Status: Success,
		Results: []SubmitResult{
			{TaskID: 11, Status: uint32(Success)},
			{Status: uint32(EAgain), Error: "shard at capacity"},
			{TaskID: 13, Status: uint32(Success)},
		},
	}
	out := roundTripResponse(t, in)
	if len(out.Results) != 3 {
		t.Fatalf("Results = %d entries", len(out.Results))
	}
	if out.Results[0].TaskID != 11 || StatusCode(out.Results[1].Status) != EAgain ||
		out.Results[1].Error != "shard at capacity" || out.Results[2].TaskID != 13 {
		t.Fatalf("results mismatch: %+v", out.Results)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	in := &Request{
		Op:        OpSubscribe,
		Subscribe: &SubscribeSpec{TaskIDs: []uint64{4, 5, 6}, ProgressMS: 250},
	}
	out := roundTripRequest(t, in)
	if out.Subscribe == nil || len(out.Subscribe.TaskIDs) != 3 ||
		out.Subscribe.TaskIDs[2] != 6 || out.Subscribe.ProgressMS != 250 || out.Subscribe.All {
		t.Fatalf("subscribe mismatch: %+v", out.Subscribe)
	}
	all := roundTripRequest(t, &Request{Op: OpSubscribe, Subscribe: &SubscribeSpec{All: true}})
	if all.Subscribe == nil || !all.Subscribe.All || len(all.Subscribe.TaskIDs) != 0 {
		t.Fatalf("all-subscribe mismatch: %+v", all.Subscribe)
	}
	unsub := roundTripRequest(t, &Request{Op: OpUnsubscribe, SubID: 9})
	if unsub.SubID != 9 {
		t.Fatalf("SubID = %d", unsub.SubID)
	}
}

func TestEventPushFrameRoundTrip(t *testing.T) {
	in := &Response{
		Status: Success,
		Event: Event{
			SubID: 3, Kind: uint32(EvState), TaskID: 17,
			Stats: TaskStats{Status: uint32(task.Finished), TotalBytes: 4096, MovedBytes: 4096,
				SegmentsTotal: 2, SegmentsDone: 2, BandwidthBps: 1e6},
			HasStats: true,
		},
		HasEvent: true,
	}
	out := roundTripResponse(t, in)
	if out.Seq != 0 {
		t.Fatalf("push frame Seq = %d, want 0", out.Seq)
	}
	if !out.HasEvent || out.Event.SubID != 3 || out.Event.TaskID != 17 ||
		EventKind(out.Event.Kind) != EvState || !out.Event.HasStats ||
		out.Event.Stats.MovedBytes != 4096 {
		t.Fatalf("event mismatch: %+v", out.Event)
	}
	gap := roundTripResponse(t, &Response{Event: Event{SubID: 3, Kind: uint32(EvGap), Dropped: 12}, HasEvent: true})
	if !gap.HasEvent || EventKind(gap.Event.Kind) != EvGap || gap.Event.Dropped != 12 {
		t.Fatalf("gap event mismatch: %+v", gap.Event)
	}
}

// legacyResponse decodes exactly the fields a v1 (pre-batch,
// pre-subscription) client knew about, skipping everything else — the
// forward-compatibility contract that lets an old client talk to a v2
// daemon.
type legacyResponse struct {
	Seq    uint64
	Status uint32
	Error  string
	TaskID uint64
	Stats  *TaskStats
}

func (r *legacyResponse) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Seq = d.Uint64()
		case 2:
			r.Status = d.Uint32()
		case 3:
			r.Error = d.String()
		case 4:
			r.TaskID = d.Uint64()
		case 5:
			r.Stats = new(TaskStats)
			d.Message(r.Stats)
		default:
			d.Skip()
		}
	}
	return d.Err()
}

func TestV1ClientSkipsV2Fields(t *testing.T) {
	// A v2 daemon response carrying batch results, a subscription ID,
	// and an event payload must decode cleanly on a v1-shaped client:
	// the unknown tags are skipped, the known ones survive.
	st := TaskStats{Status: uint32(task.Finished), MovedBytes: 99}
	v2 := &Response{
		Seq:    7,
		Status: Success,
		TaskID: 21,
		Stats:  &st,
		Results: []SubmitResult{
			{TaskID: 22, Status: uint32(Success)},
			{Status: uint32(EAgain), Error: "busy"},
		},
		SubID:    5,
		Event:    Event{SubID: 5, Kind: uint32(EvProgress), TaskID: 22, Stats: st, HasStats: true},
		HasEvent: true,
	}
	var old legacyResponse
	if err := wire.Unmarshal(wire.Marshal(v2), &old); err != nil {
		t.Fatalf("v1 decode of v2 response: %v", err)
	}
	if old.Seq != 7 || StatusCode(old.Status) != Success || old.TaskID != 21 ||
		old.Stats == nil || old.Stats.MovedBytes != 99 {
		t.Fatalf("v1 view mismatch: %+v", old)
	}
	// And the reverse: a v2 daemon must skip fields a future client
	// might send. Simulate with a request carrying an unknown tag.
	var e wire.Encoder
	(&Request{Op: OpSubmit, PID: 1}).MarshalWire(&e)
	e.String(99, "from the future")
	var req Request
	if err := wire.Unmarshal(e.Buffer(), &req); err != nil {
		t.Fatalf("decode with unknown field: %v", err)
	}
	if req.Op != OpSubmit || req.PID != 1 {
		t.Fatalf("request mismatch: %+v", req)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{EvState: "state", EvProgress: "progress", EvGap: "gap", EventKind(9): "event(9)"} {
		if got := k.String(); got != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	for op, want := range map[Op]string{OpSubmitBatch: "submit-batch", OpSubscribe: "subscribe", OpUnsubscribe: "unsubscribe"} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, got, want)
		}
		if op.Control() {
			t.Fatalf("%s must be a user op", op)
		}
	}
}

// TestStatusCodeNamesRoundTrip: every status code has its own name, and
// ParseStatusCode maps each name back to its code.
func TestStatusCodeNamesRoundTrip(t *testing.T) {
	codes := []StatusCode{
		Success, EBadRequest, ENotFound, EExists, EPermission,
		ETaskError, ETimeout, EInternal, EAgain, EUnavailable,
	}
	if len(codes) != len(statusNames) {
		t.Fatalf("%d codes listed, %d names", len(codes), len(statusNames))
	}
	seen := make(map[string]bool)
	for _, code := range codes {
		name := code.String()
		if name == "" || seen[name] {
			t.Fatalf("code %d has missing or duplicate name %q", uint32(code), name)
		}
		seen[name] = true
		if got, ok := ParseStatusCode(name); !ok || got != code {
			t.Fatalf("ParseStatusCode(%q) = %v, %v; want %v", name, got, ok, code)
		}
	}
	if got, ok := ParseStatusCode(StatusCode(len(codes)).String()); ok {
		t.Fatalf("unnamed code parsed as %v", got)
	}
	if _, ok := ParseStatusCode("NORNS_NOPE"); ok {
		t.Fatal("unknown name parsed")
	}
}
