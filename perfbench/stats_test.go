package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/proto"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		got    float64
		enough bool
	}{
		{n: 1000, want: 99, got: 99, enough: true}, // rank 990, 10 beyond
		{n: 999, want: 99, got: 95, enough: true},  // p99 leaves 9
		{n: 100, want: 90, got: 90, enough: true},  // rank 90, 10 beyond
		{n: 99, want: 90, got: 75, enough: true},
		{n: 100000, want: 99, got: 99, enough: true}, // never above want
		{n: 20, want: 90, got: 50, enough: true},     // rank 10, 10 beyond
		{n: 19, want: 90, got: 50, enough: false},
		{n: 0, want: 99, got: 50, enough: false},
	} {
		got, ok := tailPercentile(tc.n, tc.want)
		if got != tc.got || ok != tc.enough {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", tc.n, tc.want, got, ok, tc.got, tc.enough)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	sum := s.summary()
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := sum.pct(p); got != want {
			t.Errorf("pct(%g) = %g, want %g", p, got, want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := (summary{}).pct(50); got != 0 {
		t.Errorf("empty pct = %g, want 0", got)
	}
}

func TestSampleSpansChunks(t *testing.T) {
	var s sample
	n := 3*sampleChunk + 7
	for i := 0; i < n; i++ {
		s.add(float64(i))
	}
	if s.len() != n || len(s.chunks) != 4 {
		t.Fatalf("len %d in %d chunks, want %d in 4", s.len(), len(s.chunks), n)
	}
	if got := s.summary().pct(100); got != float64(n-1) {
		t.Fatalf("max = %g, want %d", got, n-1)
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %g", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0 for an idle layer", got)
	}
	if got := perSecond(500, 2*time.Second); got != 250 {
		t.Errorf("perSecond = %g, want 250", got)
	}
	if got := mibPerSecond(64<<20, 2*time.Second); got != 32 {
		t.Errorf("mibPerSecond = %g, want 32", got)
	}
	if got := overhead(200, 150); got != 0.25 {
		t.Errorf("overhead(200, 150) = %g, want 0.25", got)
	}
}

func TestWindowCreditSplitsStraddlingTasks(t *testing.T) {
	var w window
	var st clientStats
	from := time.Unix(100, 0)
	slice := time.Second
	last := from.Add((windowSlices - 1) * slice)
	w.credit(&st, from, from.Add(time.Second)) // before the window opens
	w.open(from, slice)
	w.credit(&st, from.Add(-500*time.Millisecond), from.Add(500*time.Millisecond))  // half inside slice 0
	w.credit(&st, from.Add(1500*time.Millisecond), from.Add(2500*time.Millisecond)) // half in 1, half in 2
	w.credit(&st, from.Add(3100*time.Millisecond), from.Add(3200*time.Millisecond)) // whole in slice 3
	w.credit(&st, last.Add(500*time.Millisecond), last.Add(1500*time.Millisecond))  // half in the last slice
	var want [windowSlices]float64
	want[0], want[1], want[2], want[3], want[windowSlices-1] = 0.5, 0.5, 0.5, 1, 0.5
	if st.credit != want {
		t.Fatalf("credit = %v, want %v", st.credit, want)
	}
	end := from.Add(windowSlices * slice)
	for at, want := range map[time.Time]int{
		from: 0, from.Add(1500 * time.Millisecond): 1, end.Add(-time.Nanosecond): windowSlices - 1,
		end: -1, from.Add(-time.Nanosecond): -1,
	} {
		if got := w.sliceOf(at); got != want {
			t.Errorf("sliceOf(from%+v) = %d, want %d", at.Sub(from), got, want)
		}
	}
}

func TestLatencyIsSliceMedianOnlyWithEnoughSamples(t *testing.T) {
	var w windowResult
	var pooled sample
	for k := range w.lat {
		var s sample
		for i := 1; i <= 20; i++ {
			s.add(float64(k*100 + i)) // slice k holds k*100+1 … k*100+20
		}
		w.lat[k] = s.summary()
		pooled.merge(&s)
	}
	w.pooled = pooled.summary()
	// p50 leaves 10 beyond in every 20-sample slice: the slice medians
	// are k*100+10, and their median (nearest rank) is slice 4's.
	if got, sliced := w.latency(50); !sliced || got != 410 {
		t.Fatalf("latency(50) = %g, %v; want 410 from slices", got, sliced)
	}
	// p90 leaves 2 beyond per slice: fall back to the pool of 200.
	if got, sliced := w.latency(90); sliced || got != w.pooled.pct(90) {
		t.Fatalf("latency(90) = %g, %v; want pooled %g", got, sliced, w.pooled.pct(90))
	}
}

func TestRefusalsAreNotOutputErrors(t *testing.T) {
	for code, want := range map[proto.StatusCode]bool{
		proto.EAgain: true, proto.EUnavailable: true, proto.EBadRequest: false, proto.EInternal: false,
	} {
		if got := refused(fmt.Errorf("submit: %w", &apierr.Error{Code: code})); got != want {
			t.Errorf("refused(%s) = %v, want %v", code, got, want)
		}
	}
	if refused(errors.New("connection reset")) {
		t.Error("a transport error counted as a refusal")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40}, // overlaps the first
		{Parent: 1, Start: 60, End: 70},
		{Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	if got := selfTime(parent, children); got != 100-30-10-10 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	spans := append([]span{parent, {ID: 2, Start: 0, End: 100}}, children...)
	if got := selfShare(spans); got != 150.0/200 {
		t.Fatalf("selfShare = %g, want 0.75", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	if id := tr.record(0, 0, "x", 1, time.Now(), time.Now()); id != 0 || tr.newID() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.newID()
	t0 := tr.epoch.Add(time.Millisecond)
	tr.record(0, root, "child", 7, t0, t0.Add(time.Millisecond))
	tr.record(root, 0, "root", 7, t0, t0.Add(2*time.Millisecond))
	got := tr.snapshot()
	if len(got) != 2 || got[0].Parent != root || got[1].ID != root || got[1].dur() != 2*time.Millisecond {
		t.Fatalf("spans = %+v", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and
// workload lists identical to what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in code", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
