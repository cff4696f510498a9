// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It builds one of four workloads from a seed, runs it as a closed loop with
// one client for a fixed time, checks every operation's output against a
// reference computed another way, and prints every metric by name with its
// unit. The last line of standard output is a JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer, runs the layer probes,
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"graphsurge/internal/obs"
)

// workdir holds the benchmark's scratch files, relative to the checkout
// root it runs from (run.sh builds into the same directory).
const workdir = ".bench_build"

// setups is how many times a run builds its workload; setup_s is their
// median, and every set-up must agree on the reference result.
const setups = 3

// maxLoop bounds the measuring loop when ops are too slow to reach the
// sample counts the percentiles need; the run is then refused.
const maxLoop = 100 * time.Second

// drifts counts exact counters that changed between operations, set-ups or
// runs of the same seed.
var drifts int

func driftf(format string, args ...any) {
	drifts++
	fmt.Printf("exact-count drift: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: overlap-diff, disjoint-split, cluster-scratch or serve-mutate")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 18, "measuring time")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	def, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, workdir: workdir}
	res, err := run(context.Background(), def, cfg, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopStats is what one measuring loop observed.
type loopStats struct {
	rec       recorder
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration
	allocMB   float64
}

// loop runs operations until d has passed and every class has the samples
// its percentiles need (need maps class to count).
func loop(ctx context.Context, w workload, d time.Duration, need map[string]int, tr *tracer) (loopStats, error) {
	ls := loopStats{rec: recorder{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= d && enough(ls.rec, need) {
			break
		}
		if el >= maxLoop {
			return ls, fmt.Errorf("after %v the samples cannot support the percentiles: %s", el.Round(time.Second), sampleCounts(ls.rec))
		}
		tr.nextOp()
		ls.attempted++
		if err := w.op(ctx, ls.rec, tr); err != nil {
			ls.failed++
			if ls.failed <= 5 {
				fmt.Printf("op %d failed: %v\n", ls.attempted, err)
			}
		}
	}
	ls.wall = time.Since(start)
	ls.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ls.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return ls, nil
}

func enough(rec recorder, need map[string]int) bool {
	for class, n := range need {
		if len(rec[class]) < n {
			return false
		}
	}
	return true
}

func sampleCounts(rec recorder) string {
	var parts []string
	for class, xs := range rec {
		parts = append(parts, fmt.Sprintf("%s=%d", class, len(xs)))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// setUp builds the workload setups times, keeps the last, and returns the
// median set-up time.
func setUp(ctx context.Context, def workloadDef, cfg config) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		next, err := def.build(ctx, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if w != nil && next.reference() != w.reference() {
			driftf("set-up %d reference %016x, earlier %016x", i+1, next.reference(), w.reference())
		}
		w = next
	}
	return w, median(times), nil
}

func run(ctx context.Context, def workloadDef, cfg config, d time.Duration, traced bool) (*result, error) {
	drifts = 0
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	w, setupS, err := setUp(ctx, def, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	out := newMetricSet()
	res := &result{}
	if traced {
		err = runTraced(ctx, def, cfg, w, d, out, res)
	} else {
		err = runUntraced(ctx, def, w, d, setupS, out, res)
	}
	if err != nil {
		return nil, err
	}
	if err := w.finish(ctx); err != nil {
		fmt.Printf("end-of-run check failed: %v\n", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, error_rate %.4f\n",
		def.name, cfg.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	res.Metrics = make(map[string]metric, len(out.names))
	for _, n := range out.names {
		m := out.m[n]
		fmt.Printf("%-28s %14.4f %-6s %s\n", n, m.Value, m.Unit, m.note)
		res.Metrics[n] = m
	}
	return res, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, def workloadDef, w workload, d time.Duration, setupS float64, out *metricSet, res *result) error {
	need := map[string]int{"op": samplesFor(0.9)}
	for _, c := range def.classes {
		need[c] = samplesFor(0.5)
	}
	ls, err := loop(ctx, w, d, need, nil)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = ls.attempted, ls.failed
	ops := float64(len(ls.rec["op"]))
	out.put("setup_s", setupS, "s")
	out.put("ops_per_s", ops/ls.wall.Seconds(), "1/s")
	if err := out.putPercentile("op_ms_p50", ls.rec["op"], 0.5); err != nil {
		return err
	}
	if err := out.putPercentile("op_ms_p90", ls.rec["op"], 0.9); err != nil {
		return err
	}
	out.put("cpu_ms_per_op", ms(ls.cpu)/ops, "ms")
	out.put("alloc_mb_per_op", ls.allocMB/ops, "MB")
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so the figure is the live heap alone.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.put("heap_live_mb", float64(m.HeapAlloc)/(1<<20), "MB")
	// Sub-op classes are reported beside the end-to-end metrics but are not
	// part of the result line's metric set (they exist on one workload each).
	for _, c := range def.classes {
		v, beyond, ok := quantile(ls.rec[c], 0.5)
		if !ok {
			return fmt.Errorf("%s_ms_p50: only %d samples", c, len(ls.rec[c]))
		}
		fmt.Printf("%-28s %14.4f %-6s n=%d beyond=%d\n", c+"_ms_p50", v, "ms", len(ls.rec[c]), beyond)
	}
	return nil
}

// obsSnapshot reads the process metrics the per-layer report derives
// per-operation deltas from.
type obsSnapshot struct {
	poolBuilt, poolReused, segments, incWarm int64
	hits, misses, rejected, wireBytes        int64
	estCount                                 int64
	estSum                                   float64
}

func readObs() obsSnapshot {
	return obsSnapshot{
		poolBuilt:  obs.M.PoolBuilt.Value(),
		poolReused: obs.M.PoolReused.Value(),
		segments:   obs.M.SegmentSetup.Count(),
		incWarm:    obs.M.IncrementalWarm.Value(),
		hits:       obs.M.CacheHits.Value(),
		misses:     obs.M.CacheMisses.Value(),
		rejected:   obs.M.AdmissionRejected.Value(),
		wireBytes:  obs.M.WireBytes.Value(),
		estCount:   obs.M.EstimatorError.Count(),
		estSum:     obs.M.EstimatorError.Sum(),
	}
}

// runTraced measures the per-layer metrics: an untraced loop and a traced
// loop of half the time each (their difference is the tracing overhead),
// the operations' layer counters, and the layer probes.
func runTraced(ctx context.Context, def workloadDef, cfg config, w workload, d time.Duration, out *metricSet, res *result) error {
	need := map[string]int{"op": samplesFor(0.5)}
	plain, err := loop(ctx, w, d/2, need, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	c0 := w.counters()
	o0 := readObs()
	traced, err := loop(ctx, w, d/2, need, tr)
	if err != nil {
		return err
	}
	o1 := readObs()
	c1 := w.counters()
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed

	ops := float64(traced.attempted)
	per := func(a, b int64) float64 { return float64(b-a) / ops }
	out.put("analytics.pool_built", per(o0.poolBuilt, o1.poolBuilt), "count")
	out.put("analytics.pool_reused", per(o0.poolReused, o1.poolReused), "count")
	out.put("core.segments", per(o0.segments, o1.segments), "count")
	out.put("core.incremental_warm", per(o0.incWarm, o1.incWarm), "count")
	out.put("cluster.shards", (c1["cluster.shards"]-c0["cluster.shards"])/ops, "count")
	out.put("cluster.requeued", (c1["cluster.requeued"]-c0["cluster.requeued"])/ops, "count")
	out.put("cluster.op_wire_bytes", per(o0.wireBytes, o1.wireBytes), "bytes")
	estErr := 0.0
	if n := o1.estCount - o0.estCount; n > 0 {
		estErr = (o1.estSum - o0.estSum) / float64(n)
	}
	out.put("schedule.est_rel_err", estErr, "ratio")
	hitRatio := 0.0
	if n := (o1.hits - o0.hits) + (o1.misses - o0.misses); n > 0 {
		hitRatio = float64(o1.hits-o0.hits) / float64(n)
	}
	out.put("tenant.hit_ratio", hitRatio, "ratio")
	out.put("tenant.rejected", per(o0.rejected, o1.rejected), "count")

	p50u, _, _ := quantile(plain.rec["op"], 0.5)
	p50t, _, _ := quantile(traced.rec["op"], 0.5)
	out.putNote("trace.overhead_pct", 100*(p50t-p50u)/p50u, "%", fmt.Sprintf("untraced p50 %.2f ms, traced p50 %.2f ms", p50u, p50t))
	out.put("trace.spans_per_op", float64(len(tr.spans))/ops, "count")

	probeFailed, err := probeLayers(ctx, def, cfg, tr, out)
	if err != nil {
		return err
	}
	res.Failed += probeFailed
	exactGuard(def, cfg, out)
	out.put("bench.exact_drift", float64(drifts), "count")

	tr.report()
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.ndjson", def.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// exactMetrics must repeat exactly across runs of one seed.
var exactMetrics = []string{"dataflow.work", "view.total_diffs", "cluster.wire_bytes", "graph.journal_bytes", "tenant.hit_ratio"}

// exactGuard compares the exact counts with those a previous run of the
// same workload and seed stored in the work dir, and stores them.
func exactGuard(def workloadDef, cfg config, out *metricSet) {
	cur := make(map[string]float64, len(exactMetrics))
	for _, n := range exactMetrics {
		cur[n] = out.m[n].Value
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("exact-%s-seed%d.json", def.name, cfg.seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if json.Unmarshal(data, &prev) == nil {
			for _, n := range exactMetrics {
				if p, ok := prev[n]; ok && p != cur[n] {
					driftf("%s: %v, a previous run of this seed %v", n, cur[n], p)
				}
			}
		}
	}
	if data, err := json.Marshal(cur); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Printf("storing exact counts: %v\n", err)
		}
	}
}
