package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request (one exchange, one batch, one chunk)
// share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so end-to-end runs record
// nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span whose End is not yet known.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span; parent may be nil.
func (t *tracer) start(name string, req int64, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, s: span{Req: req, Name: name}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	t.mu.Lock()
	o.s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{}) // reserve the slot for ID
	t.mu.Unlock()
	o.s.Start = time.Since(t.epoch)
	return o
}

// end closes the span and returns its duration (0 when untraced).
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
	return o.s.dur()
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes the spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap one another and may stick
// out of the parent; only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize groups spans by name with total and self time.
func summarize(spans []span) []spanStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*spanStat)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += selfTime(s, kids[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// spanCost times the tracer's own open/close pair, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("probe", int64(i), nil).end()
	}
	return time.Since(start) / n
}

func printSpanTable(w *os.File, stats []spanStat) {
	fmt.Fprintf(w, "# %-34s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "# %-34s %7d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}
