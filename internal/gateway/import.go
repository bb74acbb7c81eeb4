package gateway

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
)

// importChunk is the streaming import's submit granularity: decoded
// records are batched onto OpSubmitBatch in chunks of this many, so a
// million-line file costs thousands of journal group-commits instead
// of a million — and never more than one chunk of specs in memory.
const importChunk = 256

// ImportResult summarizes a bulk import.
type ImportResult struct {
	// Lines is how many NDJSON records the request carried (blank lines
	// excluded).
	Lines int `json:"lines"`
	// Submitted tasks were accepted; Skipped were dropped by
	// dedupe=skip; Overwritten counts dedupe=overwrite replacements
	// (each also counts in Submitted); Failed covers per-entry rejects
	// (bad spec, backpressure) in streaming mode.
	Submitted   int  `json:"submitted"`
	Skipped     int  `json:"skipped"`
	Overwritten int  `json:"overwritten"`
	Failed      int  `json:"failed"`
	DryRun      bool `json:"dry_run,omitempty"`
	Atomic      bool `json:"atomic,omitempty"`
	// TaskIDs are the assigned IDs, present only with ?ids=1 (a
	// million-task import should not echo a million IDs by default).
	TaskIDs []uint64 `json:"task_ids,omitempty"`
	// Errors carries the first importMaxErrors per-line failures.
	Errors []ImportError `json:"errors,omitempty"`
}

// ImportError locates one rejected record.
type ImportError struct {
	Line    int    `json:"line"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// importMaxErrors caps the error list echoed back.
const importMaxErrors = 16

// dedupe modes.
const (
	dedupeSkip      = "skip"
	dedupeOverwrite = "overwrite"
	dedupeError     = "error"
)

// importOpts are the parsed ?dry_run / ?atomic / ?dedupe / ?ids query
// modes.
type importOpts struct {
	dryRun     bool
	atomic     bool
	dedupe     string
	includeIDs bool
}

func parseImportOpts(r *http.Request) (importOpts, error) {
	q := r.URL.Query()
	opts := importOpts{dedupe: dedupeSkip}
	boolParam := func(name string) bool {
		v := q.Get(name)
		return v == "1" || v == "true"
	}
	opts.dryRun = boolParam("dry_run")
	opts.atomic = boolParam("atomic")
	opts.includeIDs = boolParam("ids")
	if d := q.Get("dedupe"); d != "" {
		switch d {
		case dedupeSkip, dedupeOverwrite, dedupeError:
			opts.dedupe = d
		default:
			return opts, fmt.Errorf("unknown dedupe mode %q (want skip|overwrite|error)", d)
		}
	}
	return opts, nil
}

// deduper tracks record IDs across one import stream: a record is a
// duplicate when its ID already resolves on the destination daemon
// (re-importing a file into the daemon that exported it) or appeared
// earlier in the same stream.
type deduper struct {
	d    Daemon
	seen map[uint64]struct{}
}

func newDeduper(d Daemon) *deduper {
	return &deduper{d: d, seen: make(map[uint64]struct{})}
}

// dup reports whether rec's ID is a duplicate, recording it either way.
// Records without an ID never collide.
func (dd *deduper) dup(rec *Record) bool {
	if rec.ID == 0 {
		return false
	}
	if _, ok := dd.seen[rec.ID]; ok {
		return true
	}
	dd.seen[rec.ID] = struct{}{}
	return dd.d.HasTask(rec.ID)
}

// statusOfErr extracts the protocol status from a daemon bulk error
// (*apierr.Error); anything untyped is EInternal.
func statusOfErr(err error) proto.StatusCode {
	var ae *apierr.Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	return proto.EInternal
}

// handleImport serves POST /v2/import: an NDJSON stream of Records,
// decoded line-by-line under the MaxLine clamp (the body itself has no
// total-size clamp — that is the point of streaming).
//
//	?dry_run=1   validate every record, submit nothing, mutate nothing
//	?atomic=1    stage the whole stream and submit all-or-nothing via
//	             one journal-backed batch; any bad line or a failed
//	             admission aborts with zero tasks visible
//	?dedupe=     skip (default) | overwrite | error — what to do when a
//	             record's ID already exists (see deduper)
//	?ids=1       echo assigned task IDs in the summary
//
// Streaming mode (neither flag) submits as it reads with per-entry
// acceptance: a bad line or a backpressured entry fails that record
// and the rest proceed.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	opts, err := parseImportOpts(r)
	if err != nil {
		writeError(w, 0, proto.EBadRequest, err.Error())
		return
	}
	defer r.Body.Close()
	lr := newLineReader(r.Body, s.cfg.MaxLine)
	switch {
	case opts.dryRun:
		s.importDryRun(w, lr, opts)
	case opts.atomic:
		s.importAtomic(w, lr, opts)
	default:
		s.importStream(w, lr, opts)
	}
}

// importError renders a failed import. The summary so far rides in the
// envelope's sibling field so an operator sees how far the stream got.
func importError(w http.ResponseWriter, httpStatus int, code proto.StatusCode, msg string, res *ImportResult) {
	if httpStatus == 0 {
		httpStatus = apierr.HTTPStatus(code)
	}
	writeJSON(w, httpStatus, errorBody{Error: errorInfo{Code: code.String(), Message: msg}, Import: res})
}

// lineError classifies a reader failure: oversize lines are 413 with
// the clamp named, transport errors are 400.
func lineErrParams(err error, line int) (int, proto.StatusCode, string) {
	if errors.Is(err, errLineTooLong) {
		return http.StatusRequestEntityTooLarge, proto.EBadRequest,
			fmt.Sprintf("line %d: %v", line, err)
	}
	return 0, proto.EBadRequest, fmt.Sprintf("line %d: read: %v", line, err)
}

// importDryRun validates every record through the daemon's real
// validation+authorization pipeline (and the dedupe bookkeeping) but
// submits nothing. Guaranteed side-effect free: ValidateSpec allocates
// no ID, registers nothing, journals nothing.
func (s *Server) importDryRun(w http.ResponseWriter, lr *lineReader, opts importOpts) {
	res := ImportResult{DryRun: true}
	dd := newDeduper(s.cfg.Daemon)
	addErr := func(line int, code proto.StatusCode, msg string) {
		res.Failed++
		if len(res.Errors) < importMaxErrors {
			res.Errors = append(res.Errors, ImportError{Line: line, Code: code.String(), Message: msg})
		}
	}
	line := 0
	for {
		raw, err := lr.next()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				res.Lines = line
				addErr(line, proto.EBadRequest, err.Error())
				continue
			}
			httpSt, code, msg := lineErrParams(err, line)
			importError(w, httpSt, code, msg, &res)
			return
		}
		res.Lines = line
		rec, err := DecodeRecord(raw)
		if err != nil {
			addErr(line, proto.EBadRequest, err.Error())
			continue
		}
		if dd.dup(rec) {
			switch opts.dedupe {
			case dedupeSkip:
				res.Skipped++
				continue
			case dedupeError:
				addErr(line, proto.EExists, fmt.Sprintf("duplicate task ID %d", rec.ID))
				continue
			case dedupeOverwrite:
				res.Overwritten++
			}
		}
		spec := rec.TaskSpec()
		if err := s.cfg.Daemon.ValidateSpec(&spec, 0, true); err != nil {
			addErr(line, statusOfErr(err), err.Error())
			continue
		}
		res.Submitted++ // "would submit"
	}
	writeJSON(w, http.StatusOK, res)
}

// importAtomic stages the whole stream, then submits it as one
// journal-backed batch: any malformed line, oversize line, dedupe=error
// hit, or failed admission aborts the import with nothing submitted —
// no partial batch in the registry or the journal, restart included
// (SubmitBatchAtomic registers and journals only after every entry is
// validated and admitted).
func (s *Server) importAtomic(w http.ResponseWriter, lr *lineReader, opts importOpts) {
	res := ImportResult{Atomic: true}
	dd := newDeduper(s.cfg.Daemon)
	var specs []proto.TaskSpec
	var overwriteIDs []uint64
	line := 0
	for {
		raw, err := lr.next()
		if err == io.EOF {
			break
		}
		line++
		res.Lines = line
		if err != nil {
			httpSt, code, msg := lineErrParams(err, line)
			importError(w, httpSt, code, msg, &res)
			return
		}
		rec, err := DecodeRecord(raw)
		if err != nil {
			importError(w, 0, proto.EBadRequest, fmt.Sprintf("line %d: %v", line, err), &res)
			return
		}
		if dd.dup(rec) {
			switch opts.dedupe {
			case dedupeSkip:
				res.Skipped++
				continue
			case dedupeError:
				importError(w, 0, proto.EExists,
					fmt.Sprintf("line %d: duplicate task ID %d", line, rec.ID), &res)
				return
			case dedupeOverwrite:
				res.Overwritten++
				overwriteIDs = append(overwriteIDs, rec.ID)
			}
		}
		specs = append(specs, rec.TaskSpec())
	}
	// Overwrite cancels the existing tasks only once the whole stream
	// staged cleanly — before the batch lands, so the replacements do
	// not race their predecessors for queue slots. Cancel of an already-
	// terminal task is a no-op error by design.
	for _, id := range overwriteIDs {
		s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpCancel, TaskID: id})
	}
	ids, err := s.cfg.Daemon.SubmitBatchAtomic(specs, 0, true)
	if err != nil {
		importError(w, 0, statusOfErr(err), err.Error(), &res)
		return
	}
	res.Submitted = len(ids)
	if opts.includeIDs {
		res.TaskIDs = ids
	}
	writeJSON(w, http.StatusOK, res)
}

// importStream is the default mode: submit while reading, one
// importChunk-sized OpSubmitBatch at a time, per-entry acceptance. A
// bad line fails that record; a dedupe=error hit aborts the rest of
// the stream (what was already submitted stays — use ?atomic=1 for
// all-or-nothing).
func (s *Server) importStream(w http.ResponseWriter, lr *lineReader, opts importOpts) {
	res := ImportResult{}
	dd := newDeduper(s.cfg.Daemon)
	addErr := func(line int, code proto.StatusCode, msg string) {
		res.Failed++
		if len(res.Errors) < importMaxErrors {
			res.Errors = append(res.Errors, ImportError{Line: line, Code: code.String(), Message: msg})
		}
	}
	chunk := make([]proto.TaskSpec, 0, importChunk)
	chunkLines := make([]int, 0, importChunk)
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		resp := s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpSubmitBatch, Tasks: chunk})
		if resp.Status != proto.Success {
			importError(w, 0, resp.Status, resp.Error, &res)
			return false
		}
		for i, sr := range resp.Results {
			if proto.StatusCode(sr.Status) != proto.Success {
				addErr(chunkLines[i], proto.StatusCode(sr.Status), sr.Error)
				continue
			}
			res.Submitted++
			if opts.includeIDs {
				res.TaskIDs = append(res.TaskIDs, sr.TaskID)
			}
		}
		chunk = chunk[:0]
		chunkLines = chunkLines[:0]
		return true
	}
	line := 0
	for {
		raw, err := lr.next()
		if err == io.EOF {
			break
		}
		line++
		res.Lines = line
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				addErr(line, proto.EBadRequest, err.Error())
				continue
			}
			httpSt, code, msg := lineErrParams(err, line)
			importError(w, httpSt, code, msg, &res)
			return
		}
		rec, err := DecodeRecord(raw)
		if err != nil {
			addErr(line, proto.EBadRequest, err.Error())
			continue
		}
		if dd.dup(rec) {
			switch opts.dedupe {
			case dedupeSkip:
				res.Skipped++
				continue
			case dedupeError:
				if !flush() {
					return
				}
				importError(w, 0, proto.EExists,
					fmt.Sprintf("line %d: duplicate task ID %d", line, rec.ID), &res)
				return
			case dedupeOverwrite:
				res.Overwritten++
				s.cfg.Daemon.Handle(httpPeer, &proto.Request{Op: proto.OpCancel, TaskID: rec.ID})
			}
		}
		chunk = append(chunk, rec.TaskSpec())
		chunkLines = append(chunkLines, line)
		if len(chunk) == importChunk {
			if !flush() {
				return
			}
		}
	}
	if !flush() {
		return
	}
	writeJSON(w, http.StatusOK, res)
}
