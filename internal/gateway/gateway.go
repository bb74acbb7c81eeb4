// Package gateway is urd's HTTP/JSON surface: the v2 API over plain
// HTTP for every class of non-wire client, plus the NDJSON bulk
// endpoints that drain one daemon's queue and replay it into another.
//
// The gateway is a thin adapter: requests map onto the same protocol
// ops the wire transport dispatches (OpSubmitBatch, OpSubscribe, ...),
// so both surfaces share one authorization, admission, and journaling
// path. What HTTP adds — bearer auth, request clamps, SSE framing,
// NDJSON streaming — lives here and only here.
//
// Endpoints (all require "Authorization: Bearer <token>"):
//
//	POST   /v2/tasks        submit one task (JSON object) or a batch
//	                        ({"tasks": [...]}, per-entry acceptance)
//	GET    /v2/tasks/{id}   task status (200 even for failed tasks —
//	                        the failure is in the body)
//	DELETE /v2/tasks/{id}   cancel
//	GET    /v2/status       structured daemon status
//	GET    /v2/events       SSE event stream (?ids=1,2 | all;
//	                        ?progress_ms=, ?terminal_only=1)
//	GET    /v2/export       NDJSON task dump (?state=pending|...)
//	POST   /v2/import       NDJSON bulk submit (?dry_run=1, ?atomic=1,
//	                        ?dedupe=skip|overwrite|error, ?ids=1)
//
// Two probe endpoints are deliberately unauthenticated (they carry no
// task data, and orchestrators probe without credentials):
//
//	GET /v2/healthz         liveness — 200 while the process serves
//	GET /v2/readyz          readiness — 503 while draining or degraded
//
// Errors are a JSON envelope {"error":{"code","message"}} whose HTTP
// status follows apierr.HTTPStatus — EAgain surfaces as 429 so HTTP
// clients see backpressure as the standard retry signal.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/gateway/auth"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transport"
)

const (
	// defaultMaxBody clamps JSON request bodies (submit). Import bodies
	// are exempt — they stream line-by-line under defaultMaxLine.
	defaultMaxBody = 8 << 20
	// defaultMaxLine clamps one NDJSON line; a memory-resource payload
	// travels inline, so the clamp bounds per-record memory, not file
	// size.
	defaultMaxLine = 1 << 20
	// defaultSSEKeepalive is the idle heartbeat period on event streams.
	defaultSSEKeepalive = 15 * time.Second
)

// Daemon is the surface the gateway drives. *urd.Daemon implements it;
// tests substitute stubs to exercise the HTTP layer (the full error
// table, clamp behavior) without a daemon.
type Daemon interface {
	// Handle dispatches one protocol request (the same entry point the
	// wire transport uses).
	Handle(peer transport.PeerInfo, req *proto.Request) *proto.Response
	// RangeTasks iterates the task table for export.
	RangeTasks(fn func(*task.Task))
	// SubmitBatchAtomic stages a batch all-or-nothing (atomic import).
	SubmitBatchAtomic(specs []proto.TaskSpec, pid uint64, admin bool) ([]uint64, error)
	// ValidateSpec runs validation+authorization with no side effects
	// (dry-run import).
	ValidateSpec(spec *proto.TaskSpec, pid uint64, admin bool) error
	// HasTask reports whether a task ID resolves (import dedupe).
	HasTask(id uint64) bool
	// NodeName annotates exported records with their origin.
	NodeName() string
}

// Config parameterizes a gateway.
type Config struct {
	// Addr is the TCP listen address (host:port; port 0 picks one).
	Addr string
	// Daemon is the backend; required.
	Daemon Daemon
	// Token is the bearer secret; required non-empty — the gateway
	// refuses to start open.
	Token auth.Token
	// MaxBody clamps JSON request bodies in bytes (<=0: 8 MiB).
	MaxBody int64
	// MaxLine clamps one NDJSON line in bytes (<=0: 1 MiB).
	MaxLine int
	// Logf, when set, receives one line per rejected request. Secrets
	// are redacted before formatting; nil disables logging.
	Logf func(format string, args ...any)
	// SSEKeepalive is the idle heartbeat interval on /v2/events: a
	// ": keepalive" comment is written whenever no event has flowed for
	// this long, so proxies and LB idle timeouts don't sever quiet
	// streams (<=0: 15s).
	SSEKeepalive time.Duration
}

// Server is a running gateway.
type Server struct {
	cfg Config
	lis net.Listener
	srv *http.Server
}

// New starts a gateway: the listener is bound and serving when it
// returns.
func New(cfg Config) (*Server, error) {
	if cfg.Daemon == nil {
		return nil, errors.New("gateway: Config.Daemon is required")
	}
	if cfg.Token.Empty() {
		return nil, errors.New("gateway: refusing to serve without a bearer token (set Config.Token)")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = defaultMaxLine
	}
	if cfg.SSEKeepalive <= 0 {
		cfg.SSEKeepalive = defaultSSEKeepalive
	}
	s := &Server{cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/tasks", s.handleSubmit)
	mux.HandleFunc("GET /v2/tasks/{id}", s.handleTask)
	mux.HandleFunc("DELETE /v2/tasks/{id}", s.handleCancel)
	mux.HandleFunc("GET /v2/status", s.handleStatus)
	mux.HandleFunc("GET /v2/events", s.handleEvents)
	mux.HandleFunc("GET /v2/export", s.handleExport)
	mux.HandleFunc("POST /v2/import", s.handleImport)
	// Probe endpoints sit OUTSIDE the bearer wall: orchestrators and load
	// balancers probe without credentials, and neither endpoint exposes
	// task data — healthz answers "is the process serving" and readyz
	// answers "is the daemon admitting work".
	outer := http.NewServeMux()
	outer.HandleFunc("GET /v2/healthz", s.handleHealthz)
	outer.HandleFunc("GET /v2/readyz", s.handleReadyz)
	outer.Handle("/", s.authenticate(mux))
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: outer}
	go func() {
		// Close tears the listener down; ErrServerClosed is the clean
		// shutdown signal, anything else is lost with the goroutine, so
		// surface it through Logf when one is wired.
		if err := s.srv.Serve(lis); err != nil && err != http.ErrServerClosed && cfg.Logf != nil {
			cfg.Logf("gateway: serve: %v", err)
		}
	}()
	return s, nil
}

// Addr is the bound listen address (resolves port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and drops open connections (SSE streams
// included).
func (s *Server) Close() error { return s.srv.Close() }

// authenticate enforces the bearer token on every route. Constant-time
// comparison (auth.Token); the presented credential is never echoed —
// not in the 401 body, not in logs (Logf sees only sanitized metadata).
func (s *Server) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.Token.Authorize(r.Header.Get("Authorization")) {
			if s.cfg.Logf != nil {
				s.cfg.Logf("gateway: unauthorized %s %s from %s", r.Method, r.URL.Path, r.RemoteAddr)
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="norns"`)
			writeError(w, http.StatusUnauthorized, proto.EPermission, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// httpPeer is the identity gateway requests dispatch under: the bearer
// token is an operator credential, so requests get the control surface
// (like the nornsctl socket), with no push sink — subscriptions build
// their own peer.
var httpPeer = transport.PeerInfo{Control: true, Addr: "http"}

// errorBody is the JSON error envelope. A failed import also carries
// its summary so far.
type errorBody struct {
	Error  errorInfo     `json:"error"`
	Import *ImportResult `json:"import,omitempty"`
}

type errorInfo struct {
	// Code is the protocol status name, e.g. "NORNS_EAGAIN".
	Code string `json:"code"`
	// Message is the daemon's error text (secrets never reach it: the
	// daemon does not see the Authorization header).
	Message string `json:"message"`
}

// writeError renders the envelope. httpStatus overrides the table
// mapping (401 vs 403, 413 for clamp violations); pass 0 to use
// apierr.HTTPStatus(code).
func writeError(w http.ResponseWriter, httpStatus int, code proto.StatusCode, msg string) {
	if httpStatus == 0 {
		httpStatus = apierr.HTTPStatus(code)
	}
	writeJSON(w, httpStatus, errorBody{Error: errorInfo{Code: code.String(), Message: msg}})
}

// writeRespError maps a failed protocol response to the documented
// HTTP status table.
func writeRespError(w http.ResponseWriter, resp *proto.Response) {
	writeError(w, 0, resp.Status, resp.Error)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// bodyError maps a request-body read failure: the MaxBody clamp
// surfaces as 413, everything else as 400.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, proto.EBadRequest,
			fmt.Sprintf("request body exceeds the %d-byte clamp", tooLarge.Limit))
		return
	}
	writeError(w, 0, proto.EBadRequest, "reading request body: "+err.Error())
}

// TaskJSON is the JSON form of one task's status.
type TaskJSON struct {
	TaskID        uint64  `json:"task_id"`
	Status        string  `json:"status"`
	Error         string  `json:"error,omitempty"`
	TotalBytes    int64   `json:"total_bytes"`
	MovedBytes    int64   `json:"moved_bytes"`
	SegmentsTotal uint64  `json:"segments_total,omitempty"`
	SegmentsDone  uint64  `json:"segments_done,omitempty"`
	BandwidthBps  float64 `json:"bandwidth_bps,omitempty"`
	CacheBytes    int64   `json:"cache_bytes,omitempty"`
	DeltaBytes    int64   `json:"delta_bytes,omitempty"`
}

func taskJSON(id uint64, st proto.TaskStats) TaskJSON {
	return TaskJSON{
		TaskID:        id,
		Status:        task.Status(st.Status).String(),
		Error:         st.Err,
		TotalBytes:    st.TotalBytes,
		MovedBytes:    st.MovedBytes,
		SegmentsTotal: st.SegmentsTotal,
		SegmentsDone:  st.SegmentsDone,
		BandwidthBps:  st.BandwidthBps,
		CacheBytes:    st.CacheBytes,
		DeltaBytes:    st.DeltaBytes,
	}
}

// SubmitResultJSON is one entry of a batch submission response.
type SubmitResultJSON struct {
	TaskID uint64 `json:"task_id,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// StatusJSON mirrors proto.DaemonStatus for GET /v2/status.
type StatusJSON struct {
	Version            string              `json:"version"`
	Node               string              `json:"node"`
	Policy             string              `json:"policy"`
	Shards             uint64              `json:"shards"`
	Pending            uint64              `json:"pending"`
	Tasks              uint64              `json:"tasks"`
	Journal            bool                `json:"journal"`
	RecoveredPending   uint64              `json:"recovered_pending,omitempty"`
	RecoveredRunning   uint64              `json:"recovered_running,omitempty"`
	RecoveredCancelled uint64              `json:"recovered_cancelled,omitempty"`
	RecoveredTerminal  uint64              `json:"recovered_terminal,omitempty"`
	Autotune           bool                `json:"autotune"`
	AutotuneRoutes     []AutotuneRouteJSON `json:"autotune_routes,omitempty"`
	CacheEnabled       bool                `json:"cache_enabled"`
	CacheHits          uint64              `json:"cache_hits,omitempty"`
	CacheMisses        uint64              `json:"cache_misses,omitempty"`
	CacheEvictions     uint64              `json:"cache_evictions,omitempty"`
	CacheBytes         int64               `json:"cache_bytes,omitempty"`
	CacheCapBytes      int64               `json:"cache_cap_bytes,omitempty"`
	Degraded           bool                `json:"degraded,omitempty"`
	DeadLetterTasks    uint64              `json:"dead_letter_tasks,omitempty"`
	RetryMax           uint64              `json:"retry_max,omitempty"`
	RetryBackoffMS     int64               `json:"retry_backoff_ms,omitempty"`
	Breakers           []BreakerJSON       `json:"breakers,omitempty"`
	RecoveredClean     bool                `json:"recovered_clean,omitempty"`
}

// BreakerJSON is one fabric circuit-breaker row.
type BreakerJSON struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	Fails uint64 `json:"fails,omitempty"`
	Trips uint64 `json:"trips,omitempty"`
}

// AutotuneRouteJSON is one autotuner route row.
type AutotuneRouteJSON struct {
	In         string  `json:"in"`
	Out        string  `json:"out"`
	Kind       string  `json:"kind"`
	Streams    uint32  `json:"streams"`
	SegSize    int64   `json:"seg_size"`
	GoodputBps float64 `json:"goodput_bps"`
	Samples    uint64  `json:"samples"`
	State      string  `json:"state"`
}

// StatusFromProto converts the wire status to its JSON form (shared
// with the HTTP client and nornsctl's -json renderer).
func StatusFromProto(st *proto.DaemonStatus) StatusJSON {
	out := StatusJSON{
		Version:            st.Version,
		Node:               st.Node,
		Policy:             st.Policy,
		Shards:             st.Shards,
		Pending:            st.Pending,
		Tasks:              st.Tasks,
		Journal:            st.Journal,
		RecoveredPending:   st.RecoveredPending,
		RecoveredRunning:   st.RecoveredRunning,
		RecoveredCancelled: st.RecoveredCancelled,
		RecoveredTerminal:  st.RecoveredTerminal,
		Autotune:           st.Autotune,
		CacheEnabled:       st.CacheEnabled,
		CacheHits:          st.CacheHits,
		CacheMisses:        st.CacheMisses,
		CacheEvictions:     st.CacheEvictions,
		CacheBytes:         st.CacheBytes,
		CacheCapBytes:      st.CacheCapBytes,
		Degraded:           st.Degraded,
		DeadLetterTasks:    st.DeadLetterTasks,
		RetryMax:           st.RetryMax,
		RetryBackoffMS:     st.RetryBackoffMS,
		RecoveredClean:     st.RecoveredClean,
	}
	for _, b := range st.Breakers {
		out.Breakers = append(out.Breakers, BreakerJSON{
			Addr: b.Addr, State: b.State, Fails: b.Fails, Trips: b.Trips,
		})
	}
	for _, r := range st.AutotuneRoutes {
		out.AutotuneRoutes = append(out.AutotuneRoutes, AutotuneRouteJSON{
			In: r.In, Out: r.Out, Kind: r.Kind,
			Streams: r.Streams, SegSize: r.SegSize,
			GoodputBps: r.GoodputBps, Samples: r.Samples, State: r.State,
		})
	}
	return out
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpStatus})
	if resp.Status != proto.Success || resp.StatusInfo == nil {
		writeRespError(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, StatusFromProto(resp.StatusInfo))
}

// handleHealthz is liveness: 200 whenever the gateway process is
// serving at all. It never consults the daemon — a degraded daemon is
// alive, just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz is readiness: it drives OpHealth through the daemon, so
// a draining or journal-degraded daemon answers 503 (EUnavailable) and
// load balancers rotate new submissions away while in-flight work
// finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpHealth})
	if resp.Status != proto.Success {
		writeRespError(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ready"})
}

// handleSubmit serves POST /v2/tasks: a single task record, or
// {"tasks": [...]} for a batch with per-entry acceptance. A single
// submit that hits backpressure maps EAgain to 429; a batch reports
// per-entry statuses in a 200 body, exactly like OpSubmitBatch on the
// wire.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readAll(w, r, s.cfg.MaxBody)
	if err != nil {
		bodyError(w, err)
		return
	}
	var probe struct {
		Tasks []json.RawMessage `json:"tasks"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, 0, proto.EBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if probe.Tasks == nil {
		// Single-task form.
		rec, err := DecodeRecord(body)
		if err != nil {
			writeError(w, 0, proto.EBadRequest, err.Error())
			return
		}
		spec := rec.TaskSpec()
		resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpSubmit, Task: &spec})
		if resp.Status != proto.Success {
			writeRespError(w, resp)
			return
		}
		writeJSON(w, http.StatusOK, SubmitResultJSON{TaskID: resp.TaskID, Status: proto.Success.String()})
		return
	}
	if len(probe.Tasks) == 0 {
		writeError(w, 0, proto.EBadRequest, "empty task batch")
		return
	}
	specs := make([]proto.TaskSpec, len(probe.Tasks))
	for i, raw := range probe.Tasks {
		rec, err := DecodeRecord(raw)
		if err != nil {
			writeError(w, 0, proto.EBadRequest, fmt.Sprintf("tasks[%d]: %v", i, err))
			return
		}
		specs[i] = rec.TaskSpec()
	}
	resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpSubmitBatch, Tasks: specs})
	if resp.Status != proto.Success {
		writeRespError(w, resp)
		return
	}
	results := make([]SubmitResultJSON, len(resp.Results))
	for i, res := range resp.Results {
		results[i] = SubmitResultJSON{
			TaskID: res.TaskID,
			Status: proto.StatusCode(res.Status).String(),
			Error:  res.Error,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []SubmitResultJSON `json:"results"`
	}{results})
}

func pathID(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("id"), 10, 64)
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, 0, proto.EBadRequest, "bad task ID: "+err.Error())
		return
	}
	resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpTaskStatus, TaskID: id})
	// A failed task answers 200 with the failure in the body — the
	// lookup succeeded; ETaskError (422) is for responses where the
	// failure IS the result.
	if resp.Stats == nil {
		writeRespError(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, taskJSON(resp.TaskID, *resp.Stats))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, 0, proto.EBadRequest, "bad task ID: "+err.Error())
		return
	}
	resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpCancel, TaskID: id})
	if resp.Status != proto.Success {
		writeRespError(w, resp)
		return
	}
	st := proto.TaskStats{}
	if resp.Stats != nil {
		st = *resp.Stats
	}
	writeJSON(w, http.StatusOK, taskJSON(id, st))
}

// readAll reads a clamped request body.
func readAll(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, max)
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}

// handleExport streams the task table as NDJSON, one record per line,
// sorted by task ID (deterministic output, and the ordering the dedupe
// modes' collision analysis relies on). ?state= filters on the current
// status ("pending", "terminal", any task.Status name; default all).
// The response never materializes: each line is encoded and written
// from one live task at a time.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	match, err := stateFilter(state)
	if err != nil {
		writeError(w, 0, proto.EBadRequest, err.Error())
		return
	}
	// Collect matching tasks (pointers only — the encoded form streams).
	var tasks []*task.Task
	s.cfg.Daemon.RangeTasks(func(t *task.Task) {
		if match(t.Stats().Status) {
			tasks = append(tasks, t)
		}
	})
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].ID < tasks[j].ID })
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Norns-Tasks", strconv.Itoa(len(tasks)))
	node := s.cfg.Daemon.NodeName()
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for _, t := range tasks {
		// Encode appends the newline — exactly one record per line.
		if err := enc.Encode(recordOf(t, node)); err != nil {
			return // client went away; nothing left to report to it
		}
	}
}

// stateFilter parses the export ?state= selector.
func stateFilter(state string) (func(task.Status) bool, error) {
	switch state {
	case "", "all":
		return func(task.Status) bool { return true }, nil
	case "terminal":
		return func(s task.Status) bool { return s.Terminal() }, nil
	case "pending", "running", "finished", "failed", "cancelled", "cancelling":
		return func(s task.Status) bool { return s.String() == state }, nil
	default:
		return nil, fmt.Errorf("unknown state filter %q", state)
	}
}

// sseSink buffers pushed events between the hub's pump goroutine and
// the SSE handler goroutine, so subscription setup can still fail with
// a clean JSON error (no SSE headers written) even if events arrive
// during the race, and so only the handler goroutine ever touches the
// ResponseWriter.
type sseSink struct {
	mu     sync.Mutex
	evs    []proto.Event
	notify chan struct{}
}

func newSSESink() *sseSink {
	return &sseSink{notify: make(chan struct{}, 1)}
}

func (k *sseSink) push(resp *proto.Response) {
	if !resp.HasEvent {
		return
	}
	k.mu.Lock()
	k.evs = append(k.evs, resp.Event)
	k.mu.Unlock()
	select {
	case k.notify <- struct{}{}:
	default:
	}
}

func (k *sseSink) drain() []proto.Event {
	k.mu.Lock()
	evs := k.evs
	k.evs = nil
	k.mu.Unlock()
	return evs
}

// sseEvent is the data payload of one SSE frame.
type sseEvent struct {
	TaskID uint64    `json:"task_id"`
	Stats  *TaskJSON `json:"stats,omitempty"`
}

// handleEvents serves GET /v2/events as an SSE stream riding the event
// hub: ?ids=1,2,3 subscribes to an explicit set (the stream ends with
// an "end" event once every task is terminal), no ids subscribes to all
// tasks (the stream runs until the client disconnects). ?progress_ms=
// requests throttled progress ticks; ?terminal_only=1 suppresses
// non-terminal states. Queue-overflow gap events surface as SSE
// comments (": gap dropped=N") — metadata about the stream, not data.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, 0, proto.EInternal, "response writer cannot stream")
		return
	}
	q := r.URL.Query()
	spec := &proto.SubscribeSpec{}
	remaining := map[uint64]struct{}{}
	if idsParam := q.Get("ids"); idsParam != "" {
		for _, f := range strings.Split(idsParam, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				writeError(w, 0, proto.EBadRequest, fmt.Sprintf("bad task ID %q", f))
				return
			}
			spec.TaskIDs = append(spec.TaskIDs, id)
			remaining[id] = struct{}{}
		}
	} else {
		spec.All = true
	}
	if pm := q.Get("progress_ms"); pm != "" {
		v, err := strconv.ParseInt(pm, 10, 64)
		if err != nil || v < 0 {
			writeError(w, 0, proto.EBadRequest, fmt.Sprintf("bad progress_ms %q", pm))
			return
		}
		spec.ProgressMS = v
	}
	if to := q.Get("terminal_only"); to == "1" || to == "true" {
		spec.TerminalOnly = true
	}

	sink := newSSESink()
	peer := transport.NewInProcPeer(sink.push)
	// Close before returning: InProcPeer.Close waits out any in-flight
	// push, so after this no pump goroutine can touch the sink while the
	// handler unwinds.
	defer peer.Close()
	resp := s.cfg.Daemon.Handle(peer.Info(), &proto.Request{Op: proto.OpSubscribe, Subscribe: spec})
	if resp.Status != proto.Success {
		writeRespError(w, resp)
		return
	}
	subID := resp.SubID
	defer func() {
		// Best-effort: an explicit subscription that ran to exhaustion is
		// already gone, which is fine.
		s.cfg.Daemon.Handle(peer.Info(), &proto.Request{Op: proto.OpUnsubscribe, SubID: subID})
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// The retry hint and a comment preamble flush the headers so clients
	// observe the stream immediately, before any event exists.
	fmt.Fprintf(w, "retry: 1000\n: subscribed sub=%d\n\n", subID)
	fl.Flush()

	ctx := r.Context()
	seq := 0
	explicit := len(remaining) > 0
	// The keepalive ticker guarantees the stream is never silent longer
	// than one interval: idle periods emit an SSE comment, which clients
	// ignore but intermediaries count as traffic. Event writes don't
	// reset the ticker — a spurious keepalive between events is harmless.
	keepalive := time.NewTicker(s.cfg.SSEKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
			continue
		case <-sink.notify:
		}
		evs := sink.drain()
		for i := range evs {
			ev := &evs[i]
			switch proto.EventKind(ev.Kind) {
			case proto.EvGap:
				// Comments, not events: a gap is stream metadata. An
				// all-tasks consumer that sees one should reconcile via
				// GET /v2/status; explicit sets never drop terminals.
				fmt.Fprintf(w, ": gap dropped=%d sub=%d\n\n", ev.Dropped, ev.SubID)
				continue
			case proto.EvState, proto.EvProgress:
				seq++
				payload := sseEvent{TaskID: ev.TaskID}
				if ev.HasStats {
					tj := taskJSON(ev.TaskID, ev.Stats)
					payload.Stats = &tj
				}
				data, err := json.Marshal(payload)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", proto.EventKind(ev.Kind), seq, data)
				if explicit && proto.EventKind(ev.Kind) == proto.EvState && ev.HasStats &&
					task.Status(ev.Stats.Status).Terminal() {
					delete(remaining, ev.TaskID)
				}
			}
		}
		fl.Flush()
		if explicit && len(remaining) == 0 {
			// Every subscribed task is terminal; the hub's pump is about
			// to exit too. Tell the client this is completion, not a drop.
			fmt.Fprint(w, "event: end\ndata: {\"reason\":\"complete\"}\n\n")
			fl.Flush()
			return
		}
	}
}
