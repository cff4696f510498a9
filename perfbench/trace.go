package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// module function it calls. Op ties the spans of one operation (or one probe
// repetition) together; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// medianMs is the median duration of the spans named name, in ms.
func (t *tracer) medianMs(name string) float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// write stores the spans as NDJSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// report prints the self time of every span name, largest first.
func (t *tracer) report() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("span self time %-24s %10.1f ms (%d spans)\n", n, ms(self[n]), len(t.durations(n)))
	}
}
