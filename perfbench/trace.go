package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Group (the task ID, or the first task ID of a batch);
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Group  uint64 `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no guard.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so a parent's ID can be handed to children
// recorded before the parent itself ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under id (0 allocates one) and returns
// its ID.
func (t *tracer) record(id, parent uint64, name string, group uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Group: group,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations collects the durations of every span named name, in unit.
func durations(spans []span, name string, unit time.Duration) *sample {
	var s sample
	for _, sp := range spans {
		if sp.Name == name {
			s.addDuration(sp.dur(), unit)
		}
	}
	return &s
}

// selfTime is a span's duration minus the part of its interval that
// its children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// selfShare is the summed self time of all root spans (spans without a
// parent) over their summed duration: the share of request time spent
// in the benchmark's own client code between calls into the layers.
func selfShare(spans []span) float64 {
	children := map[uint64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var self, total time.Duration
	for _, sp := range spans {
		if sp.Parent == 0 {
			self += selfTime(sp, children[sp.ID])
			total += sp.dur()
		}
	}
	return ratio(float64(self), float64(total))
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
