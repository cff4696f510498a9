package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p90 needs 100 samples, a p50 needs 20. A percentile with
// fewer is refused rather than emitted.
const minBeyond = 10

// samplesFor returns the sample count a q-quantile needs to have minBeyond
// samples beyond it.
func samplesFor(q float64) int {
	return int(math.Ceil(float64(minBeyond) / (1 - q)))
}

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples above it; ok is false when fewer than minBeyond lie above it.
func quantile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = len(s) - 1 - idx
	return s[idx], beyond, beyond >= minBeyond
}

// median of a small set of repeated measurements (set-up repetitions, probe
// repetitions). These are not latency percentiles of a sample stream, so the
// minBeyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one reported value. The JSON result line carries only value and
// unit; note (sample counts, drift flags) goes to the human-readable report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// metricSet collects named metrics in insertion order.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) put(name string, v float64, unit string) { s.putNote(name, v, unit, "") }

func (s *metricSet) putNote(name string, v float64, unit, note string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit, note: note}
}

// putPercentile records a latency percentile with its sample count, or
// returns an error when the samples cannot support it.
func (s *metricSet) putPercentile(name string, xs []float64, q float64) error {
	v, beyond, ok := quantile(xs, q)
	if !ok {
		return fmt.Errorf("%s: %d samples leave %d beyond the percentile; need %d samples", name, len(xs), beyond, samplesFor(q))
	}
	s.putNote(name, v, "ms", fmt.Sprintf("n=%d beyond=%d", len(xs), beyond))
	return nil
}
