package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/ngioproject/norns-go/internal/api/norns"
	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/gateway"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/urd"
)

// batchSize is how many NoOp tasks each control-noop client keeps in
// flight per request, on both the wire and the HTTP path.
const batchSize = 64

// noopBench is control-noop: one urd daemon with its journal on, a
// norns wire client and an HTTP gateway client, each keeping one batch
// of NoOp tasks in flight. No bytes move, so the per-task control path
// — wire codec, transport, gateway, admission, journal, event hub — is
// nearly all the work.
type noopBench struct {
	d    *urd.Daemon
	wire *norns.Client
	gw   *gateway.Client
	http *http.Client
}

func setupNoop(dir string, seed uint64) (bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6e6f6f70))
	token := strconv.FormatUint(rng.Uint64(), 36)
	d, err := urd.New(urd.Config{
		NodeName:      "bench",
		UserSocket:    filepath.Join(dir, "u.sock"),
		ControlSocket: filepath.Join(dir, "c.sock"),
		StateDir:      filepath.Join(dir, "state"),
		HTTPAddr:      "127.0.0.1:0",
		HTTPToken:     token,
	})
	if err != nil {
		return nil, err
	}
	b := &noopBench{d: d}
	if err := b.connect(dir, token); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *noopBench) connect(dir, token string) error {
	// User-socket submissions need the caller's process registered to a
	// job, as under Slurm. The control connection closes afterwards, so
	// only the two load clients stay connected.
	ctl, err := nornsctl.Dial(filepath.Join(dir, "c.sock"))
	if err != nil {
		return err
	}
	defer ctl.Close()
	if err := ctl.RegisterJob(nornsctl.JobDef{ID: 1, Hosts: []string{"bench"}}); err != nil {
		return err
	}
	if err := ctl.AddProcess(1, nornsctl.ProcDef{PID: uint64(os.Getpid())}); err != nil {
		return err
	}
	if b.wire, err = norns.Dial(filepath.Join(dir, "u.sock")); err != nil {
		return err
	}
	// One keep-alive connection for the HTTP client: posts and event
	// streams alternate on it.
	b.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	b.gw = &gateway.Client{Base: "http://" + b.d.HTTPAddr(), Token: token, HTTPClient: b.http}
	return nil
}

func (b *noopBench) clients() []loadFunc { return []loadFunc{b.wireLoop, b.httpLoop} }

func (b *noopBench) pendingTasks() int { return b.d.PendingTasks() }

func (b *noopBench) counters() (counters, error) {
	return counters{statusPolls: b.d.StatusPolls()}, nil
}

func (b *noopBench) settle() error { return nil }

// verify has nothing to add after the window: every NoOp outcome was
// checked as it resolved.
func (b *noopBench) verify() []string { return nil }

func (b *noopBench) close() {
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
	if b.wire != nil {
		b.wire.Close()
	}
	b.d.Close()
}

// wireLoop submits batches of NoOp tasks with one SubmitBatch call and
// waits for every handle to resolve through the server-push events.
func (b *noopBench) wireLoop(ctx context.Context, win *window, st *clientStats, tr *tracer) {
	descs := make([]norns.IOTask, batchSize)
	tasks := make([]*norns.IOTask, batchSize)
	for i := range tasks {
		tasks[i] = &descs[i]
	}
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	for ctx.Err() == nil {
		for i := range descs {
			descs[i] = norns.NewIOTask(norns.NoOp, norns.MemoryRegion(nil), norns.MemoryRegion(nil))
		}
		root := tr.newID()
		t0 := time.Now()
		results, err := b.wire.SubmitBatch(context.Background(), tasks)
		t1 := time.Now()
		st.attempted += batchSize
		if err != nil {
			st.failed += batchSize
			if !refused(err) {
				st.problem("wire SubmitBatch: %v", err)
			}
			continue
		}
		timer.Reset(waitTimeout)
		expired := false
		for i, r := range results {
			if r.Err != nil {
				st.failed++
				if !refused(r.Err) {
					st.problem("wire batch entry %d: %v", i, r.Err)
				}
				continue
			}
			if !expired {
				select {
				case <-r.Handle.Done():
				case <-timer.C:
					expired = true
				}
			}
			if expired {
				st.failed++
				st.problem("wire task %d missed its %s wait", descs[i].ID, waitTimeout)
				continue
			}
			end := time.Now()
			if s := r.Handle.Stats(); s.Status != task.Finished {
				st.failed++
				st.problem("wire task %d ended %s: %s", descs[i].ID, s.Status, s.Err)
				continue
			}
			win.credit(st, t0, end)
			if k := win.sliceOf(end); k >= 0 {
				st.tasks++
				st.lat[k].addDuration(end.Sub(t0), time.Millisecond)
			}
		}
		t2 := time.Now()
		group := descs[0].ID
		tr.record(0, root, "norns.submit_batch", group, t0, t1)
		tr.record(0, root, "norns.await_terminal", group, t1, t2)
		tr.record(root, 0, "norns.batch", group, t0, t2)
	}
}

// httpLoop posts NoOp batches to POST /v2/tasks and reads GET
// /v2/events?ids=… until the stream's end event.
func (b *noopBench) httpLoop(ctx context.Context, win *window, st *clientStats, tr *tracer) {
	recs := make([]gateway.Record, batchSize)
	for i := range recs {
		recs[i] = gateway.Record{
			Kind:   "noop",
			Input:  gateway.Resource{Kind: "memory"},
			Output: gateway.Resource{Kind: "memory"},
		}
	}
	ids := make([]uint64, 0, batchSize)
	for ctx.Err() == nil {
		root := tr.newID()
		t0 := time.Now()
		results, err := b.gw.SubmitBatch(context.Background(), recs)
		t1 := time.Now()
		st.attempted += batchSize
		if err != nil {
			st.failed += batchSize
			if !refused(err) {
				st.problem("gateway POST /v2/tasks: %v", err)
			}
			continue
		}
		ids = ids[:0]
		for _, r := range results {
			if r.Status != proto.Success.String() {
				st.failed++
				if r.Status != proto.EAgain.String() && r.Status != proto.EUnavailable.String() {
					st.problem("gateway batch entry: %s %s", r.Status, r.Error)
				}
				continue
			}
			ids = append(ids, r.TaskID)
		}
		if len(ids) == 0 {
			continue
		}
		ends, err := b.awaitEvents(ids, t0)
		t2 := time.Now()
		if err != nil {
			st.failed += int64(len(ids))
			st.problem("gateway GET /v2/events: %v", err)
			continue
		}
		for _, id := range ids {
			e, ok := ends[id]
			switch {
			case !ok:
				st.failed++
				st.problem("gateway task %d: stream ended without its terminal event", id)
			case e.status != task.Finished.String():
				st.failed++
				st.problem("gateway task %d ended %s", id, e.status)
			default:
				win.credit(st, t0, e.at)
				if k := win.sliceOf(e.at); k >= 0 {
					st.tasks++
					st.gatewayTasks++
					st.lat[k].addDuration(e.at.Sub(t0), time.Millisecond)
				}
			}
		}
		tr.record(0, root, "gateway.post_tasks", ids[0], t0, t1)
		tr.record(0, root, "gateway.events_end", ids[0], t1, t2)
		tr.record(root, 0, "gateway.batch", ids[0], t0, t2)
	}
}

type sseEnd struct {
	status string
	at     time.Time
}

// awaitEvents reads the SSE stream for ids until its end event, noting
// when each task's terminal state arrived. It reads the body to EOF so
// the connection returns to the pool for the next POST.
func (b *noopBench) awaitEvents(ids []uint64, start time.Time) (map[uint64]sseEnd, error) {
	var q strings.Builder
	for i, id := range ids {
		if i > 0 {
			q.WriteByte(',')
		}
		q.WriteString(strconv.FormatUint(id, 10))
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(waitTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.gw.Base+"/v2/events?ids="+q.String(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+b.gw.Token)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := b.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	ends := make(map[uint64]sseEnd, len(ids))
	r := bufio.NewReader(resp.Body)
	var event string
	var payload struct {
		TaskID uint64 `json:"task_id"`
		Stats  *struct {
			Status string `json:"status"`
		} `json:"stats"`
	}
	sawEnd := false
	for {
		line, err := r.ReadSlice('\n')
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
			if event == "end" {
				sawEnd = true
			}
		case bytes.HasPrefix(line, []byte("data:")) && event == "state":
			payload.Stats = nil
			if err := json.Unmarshal(bytes.TrimSpace(line[len("data:"):]), &payload); err != nil {
				return nil, fmt.Errorf("malformed event: %w", err)
			}
			if payload.Stats != nil && isTerminal(payload.Stats.Status) {
				ends[payload.TaskID] = sseEnd{status: payload.Stats.Status, at: time.Now()}
			}
		}
	}
	if !sawEnd {
		return ends, errors.New("stream closed without an end event")
	}
	return ends, nil
}

func isTerminal(name string) bool {
	for s := task.Pending; s <= task.DeadLetter; s++ {
		if s.String() == name {
			return s.Terminal()
		}
	}
	return false
}
