package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailIsHighestNearestRankWithTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 199, 200, 201, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending input: the rule must sort
		}
		v, pct, ok := tail(xs, nil)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		// The reported percentile's nearest rank is the tail sample, and
		// any higher percentile would leave fewer than ten beyond.
		if got := newDist(xs).nearestRank(pct); got != v {
			t.Errorf("n=%d: nearest rank of p%.4f = %g, want %g", n, pct, got, v)
		}
		if got := newDist(xs).nearestRank(pct + 1e-9); got == v {
			t.Errorf("n=%d: p%.4f is not the highest such percentile", n, pct)
		}
	}
	if v, _, ok := tail([]float64{3, 1, 2}, nil); ok || v != 3 {
		t.Errorf("3 samples: tail = %g ok=%v, want the maximum and ok=false", v, ok)
	}
	if v, pct, _ := tail(make([]float64, 200), nil); v != 0 || pct != 95 {
		t.Errorf("200 samples: p%g, want p95", pct)
	}
}

// A loop that repeats its inputs must not report one slow input as its
// tail, however often that input was measured.
func TestTailNeedsThreeInputsBeyond(t *testing.T) {
	var xs []float64
	var input []int
	for rep := 0; rep < 20; rep++ {
		for in := 0; in < 10; in++ {
			x := float64(in) // input 9 is the slowest, 8 the next
			if in == 9 {
				x = 100
			}
			xs = append(xs, x+float64(rep)/1000)
			input = append(input, in)
		}
	}
	v, pct, ok := tail(xs, input)
	if !ok {
		t.Fatal("no tail")
	}
	// Beyond the tail: all of inputs 9 and 8 and the top sample of
	// input 7, so the tail is input 7's next-highest sample.
	if want := 7 + 18.0/1000; v != want {
		t.Errorf("tail = %g, want %g", v, want)
	}
	if want := 100 * float64(len(xs)-41) / float64(len(xs)); pct != want {
		t.Errorf("percentile = %g, want %g", pct, want)
	}
	// Without input names every sample counts as its own input.
	if v, _, _ := tail(xs, nil); v != 100+9.0/1000 {
		t.Errorf("tail without inputs = %g, want the 11th-largest sample", v)
	}
	if _, _, ok := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}); ok {
		t.Error("two inputs gave a tail")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{ID: 1, Start: d(0), End: d(100)}
	kids := []span{
		{ID: 2, Parent: 1, Start: d(10), End: d(40)},
		{ID: 3, Parent: 1, Start: d(30), End: d(60)},  // overlaps the first
		{ID: 4, Parent: 1, Start: d(20), End: d(25)},  // inside the first
		{ID: 5, Parent: 1, Start: d(90), End: d(130)}, // runs past the parent
		{ID: 6, Parent: 1, Start: d(70), End: d(70)},  // empty
	}
	// Covered: [10,60) and [90,100) = 60 ms.
	if got := selfTime(parent, kids); got != d(40) {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != d(100) {
		t.Errorf("self time without children = %v, want 100ms", got)
	}
	stats := summarize(append([]span{parent}, kids...))
	for _, s := range stats {
		if s.Count == 1 && s.Total == d(100) && s.Self != d(40) {
			t.Errorf("summary self time of the parent = %v, want 40ms", s.Self)
		}
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const period = 10 * time.Millisecond
	const stall = 60 * time.Millisecond
	start := time.Now().Add(period)
	chunks, late := runSchedule(start, period, 8, func(i int) (time.Time, error) {
		if i == 2 {
			time.Sleep(stall) // the server stalls on chunk 2
		}
		return time.Now(), nil
	})
	// Chunk 2 is acked about 80 ms after start, so chunk 3 (due at
	// 30 ms) waits about 50 ms and chunk 4 (due at 40 ms) about 40 ms.
	for i, want := range map[int]time.Duration{2: stall, 3: stall - period, 4: stall - 2*period} {
		if got := chunks[i].latency(); got < want-3*time.Millisecond {
			t.Errorf("chunk %d latency %v, want at least %v", i, got, want)
		}
	}
	if got := chunks[0].latency(); got > stall/2 {
		t.Errorf("chunk 0 latency %v before any stall", got)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i].due.Sub(chunks[i-1].due) != period {
			t.Fatalf("due times drifted: chunk %d", i)
		}
	}
	// The backlog is the server's, not the generator's.
	if late > stall/2 {
		t.Errorf("generator lateness %v counts the server's stall", late)
	}
}

func TestMatchFramesCountsLossAndFalseFrames(t *testing.T) {
	s := &liveSession{samples: 300, packets: []livePacket{
		{start: 0, end: 100, payload: []byte{1}},
		{start: 100, end: 200, payload: []byte{2}},
		{start: 200, end: 300, payload: []byte{3}},
	}}
	frames := []frameRow{
		{Start: 10, End: 90, Payload: []byte{1}},
		{Start: 110, End: 190, Payload: []byte{9}}, // wrong payload
		{Start: 310, End: 390, Payload: []byte{1}}, // second loop
		{Start: 15, End: 95, Payload: []byte{1}},   // duplicate of the first
		{Start: 210, End: 290, Payload: []byte{3}},
	}
	// 450 samples sent: packets 0-2 of loop 0 and packet 0 of loop 1.
	m := matchFrames(s, 450, frames, nil)
	if m.sent != 4 || m.matched != 3 || m.falseFrames != 1 || len(m.timed) != 3 {
		t.Errorf("sent=%d matched=%d false=%d timed=%d, want 4 3 1 3", m.sent, m.matched, m.falseFrames, len(m.timed))
	}
}

func TestComparableRefusesOtherCoreCountOrGo(t *testing.T) {
	a := envInfo{GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}
	if err := comparable(a, a); err != nil {
		t.Fatalf("same environment refused: %v", err)
	}
	for _, b := range []envInfo{
		{GOMAXPROCS: 4, NumCPU: 2, GoVersion: "go1.24.0"},
		{GOMAXPROCS: 2, NumCPU: 4, GoVersion: "go1.24.0"},
		{GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.23.0"},
	} {
		if err := comparable(a, b); err == nil {
			t.Errorf("%+v vs %+v: compared, want a refusal", a, b)
		}
	}
}

// The catalogue here and BENCHMARK.json must name the same metrics.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
