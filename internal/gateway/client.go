package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
)

// Client drives a remote gateway over HTTP: nornsctl's export/import/
// drain subcommands and the gateway benchmark are built on it. Errors
// from the server's JSON envelope come back as *apierr.Error so callers
// can branch on the protocol status the same way wire clients do.
type Client struct {
	// Base is the gateway root, e.g. "http://127.0.0.1:9300".
	Base string
	// Token is the bearer secret sent with every request.
	Token string
	// HTTPClient, when nil, falls back to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	return req, nil
}

// decodeError turns a non-2xx response into an *apierr.Error: the
// envelope's code string when it parses, the HTTP status table
// otherwise. env, when non-nil, receives the decoded envelope (a failed
// import's partial summary rides in it).
func decodeError(resp *http.Response, env *errorBody) error {
	if env == nil {
		env = new(errorBody)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	code := apierr.FromHTTPStatus(resp.StatusCode)
	msg := strings.TrimSpace(string(body))
	if err := json.Unmarshal(body, env); err == nil && env.Error.Code != "" {
		msg = env.Error.Message
		if parsed, ok := proto.ParseStatusCode(env.Error.Code); ok {
			code = parsed
		}
	}
	if msg == "" {
		msg = resp.Status
	}
	return &apierr.Error{API: "gateway", Code: code, Msg: msg}
}

// doJSON runs one request and decodes a 2xx JSON body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, nil)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Status fetches GET /v2/status.
func (c *Client) Status(ctx context.Context) (*StatusJSON, error) {
	var st StatusJSON
	if err := c.doJSON(ctx, http.MethodGet, "/v2/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit posts one task record.
func (c *Client) Submit(ctx context.Context, rec *Record) (*SubmitResultJSON, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	var res SubmitResultJSON
	if err := c.doJSON(ctx, http.MethodPost, "/v2/tasks", bytes.NewReader(body), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SubmitBatch posts a task batch with per-entry acceptance.
func (c *Client) SubmitBatch(ctx context.Context, recs []Record) ([]SubmitResultJSON, error) {
	body, err := json.Marshal(struct {
		Tasks []Record `json:"tasks"`
	}{recs})
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []SubmitResultJSON `json:"results"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v2/tasks", bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// TaskStatus fetches GET /v2/tasks/{id}.
func (c *Client) TaskStatus(ctx context.Context, id uint64) (*TaskJSON, error) {
	var tj TaskJSON
	if err := c.doJSON(ctx, http.MethodGet, "/v2/tasks/"+strconv.FormatUint(id, 10), nil, &tj); err != nil {
		return nil, err
	}
	return &tj, nil
}

// Cancel issues DELETE /v2/tasks/{id}.
func (c *Client) Cancel(ctx context.Context, id uint64) (*TaskJSON, error) {
	var tj TaskJSON
	if err := c.doJSON(ctx, http.MethodDelete, "/v2/tasks/"+strconv.FormatUint(id, 10), nil, &tj); err != nil {
		return nil, err
	}
	return &tj, nil
}

// Export streams GET /v2/export into w and returns the task count from
// the X-Norns-Tasks header. state is the ?state= filter ("" for all).
func (c *Client) Export(ctx context.Context, w io.Writer, state string) (int, error) {
	path := "/v2/export"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return 0, decodeError(resp, nil)
	}
	count, _ := strconv.Atoi(resp.Header.Get("X-Norns-Tasks"))
	if _, err := io.Copy(w, resp.Body); err != nil {
		return count, err
	}
	return count, nil
}

// ImportOptions select POST /v2/import's modes.
type ImportOptions struct {
	DryRun bool
	Atomic bool
	// Dedupe is "skip", "overwrite", or "error" ("" = server default).
	Dedupe string
	// IncludeIDs asks the server to echo assigned task IDs.
	IncludeIDs bool
}

// Import streams an NDJSON body to POST /v2/import. A failed import
// returns the error envelope as *apierr.Error; when the server attached
// a partial summary it is still returned alongside the error.
func (c *Client) Import(ctx context.Context, r io.Reader, opts ImportOptions) (*ImportResult, error) {
	q := url.Values{}
	if opts.DryRun {
		q.Set("dry_run", "1")
	}
	if opts.Atomic {
		q.Set("atomic", "1")
	}
	if opts.Dedupe != "" {
		q.Set("dedupe", opts.Dedupe)
	}
	if opts.IncludeIDs {
		q.Set("ids", "1")
	}
	path := "/v2/import"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, r)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var env errorBody
		err := decodeError(resp, &env)
		return env.Import, err
	}
	var res ImportResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SSEEvent is one parsed frame of the /v2/events stream.
type SSEEvent struct {
	// Kind is the SSE event name: "state", "progress", or "end".
	Kind string
	// TaskID and Stats are filled for state/progress events.
	TaskID uint64
	Stats  *TaskJSON
	// Gap marks a dropped-events comment; Dropped is the count.
	Gap     bool
	Dropped uint64
}

// Events consumes GET /v2/events as a server-sent-event stream, calling
// fn for every frame (including gap comments). fn returning false ends
// the stream; an "end" event ends it from the server side. Pass ids for
// an explicit task set (the stream then terminates once all are
// terminal), nil for all tasks.
func (c *Client) Events(ctx context.Context, ids []uint64, progressMS int64, fn func(SSEEvent) bool) error {
	q := url.Values{}
	if len(ids) > 0 {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.FormatUint(id, 10)
		}
		q.Set("ids", strings.Join(parts, ","))
	}
	if progressMS > 0 {
		q.Set("progress_ms", strconv.FormatInt(progressMS, 10))
	}
	path := "/v2/events"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, nil)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	flush := func() (bool, error) {
		defer func() { event, data = "", "" }()
		if event == "" && data == "" {
			return true, nil
		}
		ev := SSEEvent{Kind: event}
		if event == "end" {
			fn(ev)
			return false, nil
		}
		if data != "" {
			var payload sseEvent
			if err := json.Unmarshal([]byte(data), &payload); err != nil {
				return false, fmt.Errorf("events: malformed frame: %v", err)
			}
			ev.TaskID = payload.TaskID
			ev.Stats = payload.Stats
		}
		return fn(ev), nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line terminates a frame.
			cont, err := flush()
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		case strings.HasPrefix(line, ": gap dropped="):
			fields := strings.Fields(strings.TrimPrefix(line, ": gap "))
			ev := SSEEvent{Gap: true}
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, "dropped="); ok {
					ev.Dropped, _ = strconv.ParseUint(v, 10, 64)
				}
			}
			if !fn(ev) {
				return nil
			}
		case strings.HasPrefix(line, ":"):
			// Other comments (the subscribe preamble) are ignored.
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// DrainResult summarizes a queue drain between daemons.
type DrainResult struct {
	// Tasks is how many pending tasks moved; Bytes their summed sizes.
	Tasks int   `json:"tasks"`
	Bytes int64 `json:"bytes"`
	// Imported confirms the destination's acceptance count; Cancelled is
	// how many source tasks were cancelled after the handoff.
	Imported  int `json:"imported"`
	Cancelled int `json:"cancelled"`
}

// Drain moves the source daemon's pending queue to dst: export pending
// tasks from src, import them atomically into dst (all-or-nothing — a
// failed import leaves the source untouched), then cancel the moved
// tasks on src. Byte and task counters are preserved across the move by
// construction: the same NDJSON records land on the other side.
func (c *Client) Drain(ctx context.Context, dst *Client) (*DrainResult, error) {
	var buf bytes.Buffer
	if _, err := c.Export(ctx, &buf, "pending"); err != nil {
		return nil, fmt.Errorf("drain: export from source: %w", err)
	}
	// Parse the stream once to collect IDs and byte totals for the
	// summary (and the cancel pass). Task IDs are daemon-local: the
	// replay stream is re-encoded without them so the destination
	// assigns fresh ones instead of colliding (dedupe=skip would
	// silently drop every record whose source ID is already taken).
	var ids []uint64
	var replay bytes.Buffer
	res := &DrainResult{}
	lr := newLineReader(bytes.NewReader(buf.Bytes()), 0)
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("drain: reading export: %w", err)
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("drain: reading export: %w", err)
		}
		res.Tasks++
		sz := rec.TotalBytes
		if sz == 0 {
			sz = rec.Input.Size
		}
		res.Bytes += sz
		if rec.ID != 0 {
			ids = append(ids, rec.ID)
		}
		rec.ID = 0
		out, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("drain: re-encoding record: %w", err)
		}
		replay.Write(out)
		replay.WriteByte('\n')
	}
	if res.Tasks == 0 {
		return res, nil
	}
	imp, err := dst.Import(ctx, bytes.NewReader(replay.Bytes()), ImportOptions{Atomic: true})
	if err != nil {
		return nil, fmt.Errorf("drain: import into destination: %w", err)
	}
	res.Imported = imp.Submitted
	// The batch is durable on dst; now retire the moved tasks at the
	// source. Cancel failures (task already ran to completion in the
	// window) are tolerated — the drain still moved the queue.
	for _, id := range ids {
		if _, err := c.Cancel(ctx, id); err == nil {
			res.Cancelled++
		}
	}
	return res, nil
}
