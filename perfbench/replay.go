package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/cascache"
	"github.com/ngioproject/norns-go/internal/journal"
	"github.com/ngioproject/norns-go/internal/mercury"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/storage"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
	"github.com/ngioproject/norns-go/internal/urd"
	"github.com/ngioproject/norns-go/internal/wire"
)

// Layer replays call one module's public functions directly, with the
// shapes the workloads give them: 64-task batches and single-task
// events on the control path, 32 MiB files in 8 MiB segments on the
// data path. They run only in the traced run; each records how many
// operations it made, how long they took and what they allocated.

// segSize is urd's default transfer segment.
const segSize = 8 << 20

// replayLog is the op count, busy time and allocations of one replay.
type replayLog struct {
	name   string
	ops    int
	busy   time.Duration
	allocs uint64
}

func (l replayLog) String() string {
	return fmt.Sprintf("replay %-22s ops=%-7d busy_ms=%-10.3f allocs/op=%.2f",
		l.name, l.ops, float64(l.busy)/float64(time.Millisecond), ratio(float64(l.allocs), float64(l.ops)))
}

// replays collects metrics and logs across all layer replays.
type replays struct {
	metrics map[string]float64
	logs    []replayLog
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeOps runs op n times and returns each call's duration, after
// logging the replay under name.
func (r *replays) timeOps(name string, n int, op func(i int) error) (*sample, error) {
	var s sample
	var busy time.Duration
	m0 := mallocs()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		busy += d
		s.addDuration(d, time.Nanosecond)
	}
	r.logs = append(r.logs, replayLog{name: name, ops: n, busy: busy, allocs: mallocs() - m0})
	return &s, nil
}

// rate runs op n times and returns MiB/s for n×bytes.
func (r *replays) rate(name string, n int, bytesPerOp int64, op func(i int) error) (float64, error) {
	if _, err := r.timeOps(name, n, op); err != nil {
		return 0, err
	}
	return mibPerSecond(int64(n)*bytesPerOp, r.last().busy), nil
}

func (r *replays) last() replayLog { return r.logs[len(r.logs)-1] }

// runReplays runs every layer replay with its files under dir, which is
// relative so socket paths stay short.
func runReplays(dir string) (*replays, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &replays{metrics: map[string]float64{}}
	for _, fn := range []func(*replays, string) error{
		replayWire, replayTransport, replayEvents, replayJournal,
		replayMercury, replayStorage, replayCascache,
	} {
		if err := fn(r, dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Replay samples are in nanoseconds.
const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)

func noopSpec() proto.TaskSpec {
	return proto.TaskSpec{
		Kind:   uint32(task.NoOp),
		Input:  proto.FromResource(task.MemoryRegion(nil)),
		Output: proto.FromResource(task.MemoryRegion(nil)),
	}
}

// replayWire round-trips a 64-task SubmitBatch request and its response,
// and one terminal-state event, through the frame writer and reader.
func replayWire(r *replays, _ string) error {
	req := &proto.Request{Op: proto.OpSubmitBatch, Seq: 7, PID: 4711,
		Tasks: make([]proto.TaskSpec, batchSize), Subscribe: &proto.SubscribeSpec{TerminalOnly: true}}
	resp := &proto.Response{Status: proto.Success, Seq: 7, SubID: 3, Results: make([]proto.SubmitResult, batchSize)}
	for i := range req.Tasks {
		req.Tasks[i] = noopSpec()
		resp.Results[i] = proto.SubmitResult{TaskID: uint64(1000 + i), Status: uint32(proto.Success)}
	}
	var buf bytes.Buffer
	fw, fr := wire.NewFrameWriter(&buf), wire.NewFrameReader(&buf)
	roundTrip := func(out wire.Marshaler, in wire.Unmarshaler) error {
		buf.Reset()
		if err := fw.WriteMessage(out); err != nil {
			return err
		}
		return fr.ReadMessage(in)
	}
	const batches = 5000
	s, err := r.timeOps("wire.submit64", batches, func(int) error {
		if err := roundTrip(req, new(proto.Request)); err != nil {
			return err
		}
		return roundTrip(resp, new(proto.Response))
	})
	if err != nil {
		return err
	}
	r.metrics["wire.submit64_roundtrip_us"] = s.summary().mean() / nsPerUs
	r.metrics["wire.allocs_per_submit64"] = ratio(float64(r.last().allocs), batches)

	ev := &proto.Response{HasEvent: true, Event: proto.Event{SubID: 3, Kind: uint32(proto.EvState), TaskID: 1001,
		HasStats: true, Stats: proto.TaskStats{Status: uint32(task.Finished)}}}
	const events = 100000
	if _, err := r.timeOps("wire.event", events, func(int) error { return roundTrip(ev, new(proto.Response)) }); err != nil {
		return err
	}
	r.metrics["wire.event_roundtrip_ns"] = float64(r.last().busy) / events
	return nil
}

// replayTransport times Call round trips against a trivial handler on
// two AF_UNIX connections at once, as control-noop's two clients do.
func replayTransport(r *replays, dir string) error {
	srv := transport.NewServer(func(transport.PeerInfo, *proto.Request) *proto.Response {
		return &proto.Response{Status: proto.Success}
	}, false)
	defer srv.Close()
	sock := filepath.Join(dir, "rt.sock")
	if _, err := srv.Listen("unix", sock); err != nil {
		return err
	}
	const conns, calls = 2, 5000
	var per [conns]sample
	var busy [conns]time.Duration
	errs := make(chan error, conns)
	m0 := mallocs()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		conn, err := transport.Dial("unix", sock)
		if err != nil {
			return err
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				if _, err := conn.Call(context.Background(), &proto.Request{Op: proto.OpPing, PID: 1}); err != nil {
					errs <- err
					return
				}
				d := time.Since(t0)
				busy[c] += d
				per[c].addDuration(d, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return fmt.Errorf("transport call: %w", err)
	}
	per[0].merge(&per[1])
	r.logs = append(r.logs, replayLog{name: "transport.call", ops: conns * calls, busy: busy[0] + busy[1], allocs: mallocs() - m0})
	s := per[0].summary()
	r.metrics["transport.call_rtt_us.p50"] = s.pct(50) / nsPerUs
	r.metrics["transport.call_rtt_us.p99"] = s.pct(99) / nsPerUs
	return nil
}

// replayEvents publishes terminal states through an EventHub with one
// explicit-ID subscriber whose pusher only counts, and times each task
// from publish until the pusher has seen every event.
func replayEvents(r *replays, _ string) error {
	const tasks = 50000
	hub := urd.NewEventHub(0, 0)
	defer hub.Close()
	ids := make([]uint64, tasks)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	var pushed atomic.Int64
	all := make(chan struct{})
	count := func(n int) {
		if pushed.Add(int64(n)) == tasks {
			close(all)
		}
	}
	closed := make(chan struct{})
	defer close(closed)
	_, err := hub.Subscribe(&proto.SubscribeSpec{TaskIDs: ids, TerminalOnly: true},
		func(uint64) (task.Stats, error) { return task.Stats{Status: task.Pending}, nil },
		urd.Pusher{
			Push:      func(*proto.Response) error { count(1); return nil },
			PushBatch: func(b []*proto.Response) error { count(len(b)); return nil },
		}, closed)
	if err != nil {
		return err
	}
	m0 := mallocs()
	t0 := time.Now()
	for _, id := range ids {
		hub.PublishState(id, task.Stats{Status: task.Finished})
	}
	select {
	case <-all:
	case <-time.After(waitTimeout):
		return fmt.Errorf("event hub pushed %d of %d terminal events", pushed.Load(), tasks)
	}
	busy := time.Since(t0)
	r.logs = append(r.logs, replayLog{name: "events.publish_state", ops: tasks, busy: busy, allocs: mallocs() - m0})
	r.metrics["events.publish_state_ns"] = float64(busy) / tasks
	return nil
}

// replayJournal appends the records one control-noop task and one
// staged copy produce, on a journal with the daemon's defaults.
func replayJournal(r *replays, dir string) error {
	j, err := journal.Open(filepath.Join(dir, "journal-replay"), journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	spec := task.Spec{Kind: task.NoOp, Input: task.MemoryRegion(nil), Output: task.MemoryRegion(nil)}
	specs := make([]task.Spec, batchSize)
	ids := make([]uint64, batchSize)
	for i := range specs {
		specs[i] = spec
	}
	const batches = 400
	s, err := r.timeOps("journal.submit_batch64", batches, func(b int) error {
		for i := range ids {
			ids[i] = uint64(b*batchSize + i + 1)
		}
		return j.RecordSubmitBatch(ids, specs)
	})
	if err != nil {
		return err
	}
	sum := s.summary()
	r.metrics["journal.submit_batch64_us.p50"] = sum.pct(50) / nsPerUs
	r.metrics["journal.submit_batch64_us.p99"] = sum.pct(99) / nsPerUs

	const records = 2000
	if s, err = r.timeOps("journal.record_state", records, func(i int) error {
		return j.RecordState(uint64(i+1), task.Running, "")
	}); err != nil {
		return err
	}
	r.metrics["journal.record_state_us.p50"] = s.summary().pct(50) / nsPerUs
	if s, err = r.timeOps("journal.record_stats", records, func(i int) error {
		return j.RecordStats(uint64(i+1), task.Stats{Status: task.Finished})
	}); err != nil {
		return err
	}
	r.metrics["journal.record_stats_us.p50"] = s.summary().pct(50) / nsPerUs
	bits := []byte{0x0f}
	if s, err = r.timeOps("journal.record_progress", records, func(i int) error {
		return j.RecordProgress(uint64(i%batchSize+1), segSize, fileSize, bits, fileSize)
	}); err != nil {
		return err
	}
	r.metrics["journal.record_progress_us.p50"] = s.summary().pct(50) / nsPerUs
	if s, err = r.timeOps("journal.compact", 5, func(int) error { return j.Compact() }); err != nil {
		return err
	}
	r.metrics["journal.compact_ms.p50"] = s.summary().pct(50) / nsPerMs
	return nil
}

// seededBytes returns n bytes of the seeded stream name.
func seededBytes(name string, n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(stream(1, name), b); err != nil {
		panic(err) // ChaCha8 never fails to fill
	}
	return b
}

// replayMercury moves a 32 MiB region over the ofi+tcp loopback in
// 8 MiB segments, pulled and pushed, and times small forwarded RPCs.
func replayMercury(r *replays, _ string) error {
	srv, err := mercury.NewClass("ofi+tcp")
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	cli, err := mercury.NewClass("ofi+tcp")
	if err != nil {
		return err
	}
	defer cli.Close()
	ep, err := cli.Lookup(addr)
	if err != nil {
		return err
	}

	payload := make([]byte, 256)
	s, err := r.timeOps("mercury.forward", 2000, func(int) error {
		_, err := ep.Forward("echo", payload)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["mercury.forward_rtt_us.p50"] = s.summary().pct(50) / nsPerUs

	src := mercury.NewMemRegion(seededBytes("mercury", fileSize))
	h := srv.ExposeBulk(src)
	defer srv.ReleaseBulk(h)
	dst := make([]byte, fileSize)
	const segs = 4 * fileSize / segSize
	if r.metrics["mercury.bulk_pull_mib_s"], err = r.rate("mercury.bulk_pull", segs, segSize, func(i int) error {
		// The sink of a pull is segment-relative, as in urd's pulls.
		off := int64(i%(fileSize/segSize)) * segSize
		n, err := ep.BulkPull(h, off, segSize, mercury.NewMemRegion(dst[off:off+segSize]))
		if err == nil && n != segSize {
			err = fmt.Errorf("pulled %d of %d bytes", n, segSize)
		}
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(dst, src.Bytes()) {
		return errors.New("mercury bulk pull: destination differs from source")
	}

	sink := mercury.NewMemRegion(make([]byte, fileSize))
	hs := srv.ExposeBulk(sink)
	defer srv.ReleaseBulk(hs)
	if r.metrics["mercury.bulk_push_mib_s"], err = r.rate("mercury.bulk_push", 4, fileSize, func(int) error {
		n, err := ep.BulkPush(hs, src)
		if err == nil && n != fileSize {
			err = fmt.Errorf("pushed %d of %d bytes", n, fileSize)
		}
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(sink.Bytes(), src.Bytes()) {
		return errors.New("mercury bulk push: destination differs from source")
	}
	return nil
}

// replayStorage writes a 32 MiB file in 8 MiB WriteAt segments, and
// range-copies a 32 MiB file in the kernel, as local staging does.
func replayStorage(r *replays, dir string) error {
	fs, err := storage.NewOSFS(filepath.Join(dir, "storage-replay"))
	if err != nil {
		return err
	}
	data := seededBytes("storage", segSize)
	const files = 4
	write := func(name string) error {
		w, err := fs.OpenWriterAt(name, fileSize)
		if err != nil {
			return err
		}
		for off := int64(0); off < fileSize; off += segSize {
			if _, err := w.WriteAt(data, off); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}
	if r.metrics["storage.write_at_mib_s"], err = r.rate("storage.write_at", files, fileSize, func(i int) error {
		return write(fmt.Sprintf("w%d", i))
	}); err != nil {
		return err
	}
	src, err := fs.OpenReaderAt("w0")
	if err != nil {
		return err
	}
	defer src.Close()
	r.metrics["storage.copy_range_mib_s"], err = r.rate("storage.copy_range", files, fileSize, func(i int) error {
		dst, err := fs.OpenWriterAt(fmt.Sprintf("c%d", i), fileSize)
		if err != nil {
			return err
		}
		n, err := fs.CopyRange(dst, 0, src, 0, fileSize)
		if err == nil && n != fileSize {
			err = fmt.Errorf("copied %d of %d bytes", n, fileSize)
		}
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return err
}

// replayCascache hashes 32 MiB files into 8 MiB segment digests, fills
// cache entries for fresh segments, and times hits on them.
func replayCascache(r *replays, dir string) error {
	c, err := cascache.Open(filepath.Join(dir, "cascache-replay"), cacheSize)
	if err != nil {
		return err
	}
	file := bytes.NewReader(seededBytes("cascache", fileSize))
	if r.metrics["cascache.hash_mib_s"], err = r.rate("cascache.hash", 4, fileSize, func(int) error {
		_, err := cascache.HashSegments(file, fileSize, segSize)
		return err
	}); err != nil {
		return err
	}

	const fills = 8
	segs := make([][]byte, fills)
	digests := make([][]byte, fills)
	for i := range segs {
		segs[i] = seededBytes(fmt.Sprintf("segment%d", i), segSize)
		d := sha256.Sum256(segs[i])
		digests[i] = d[:]
	}
	if r.metrics["cascache.fill_mib_s"], err = r.rate("cascache.fill", fills, segSize, func(i int) error {
		fl, err := c.BeginFill("dst://", digests[i], segSize)
		if err != nil {
			return err
		}
		if fl == nil {
			return errors.New("fill refused for a fresh digest")
		}
		if _, err := fl.WriteAt(segs[i], 0); err != nil {
			fl.Abort()
			return err
		}
		return fl.Commit()
	}); err != nil {
		return err
	}
	s, err := r.timeOps("cascache.get_hit", 2000, func(i int) error {
		e, ok := c.Get("dst://", digests[i%fills], segSize)
		if !ok {
			return errors.New("miss on a filled entry")
		}
		return e.Close()
	})
	if err != nil {
		return err
	}
	r.metrics["cascache.get_hit_us.p50"] = s.summary().pct(50) / nsPerUs
	return nil
}
