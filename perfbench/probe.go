package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/cluster"
	"graphsurge/internal/core"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/server"
	"graphsurge/internal/tenant"
	"graphsurge/internal/view"
)

// probeReps repeats each layer probe; reported times are medians.
// probeHits is the number of cache hits timed in process and over HTTP, and
// probeMutations the scripted batches applied to the side store and engine.
const (
	probeReps      = 3
	probeHits      = 20
	probeMutations = 8
)

// prober runs every layer's public functions on a workload's inputs,
// regenerated from the seed, with a span around each call. Every workload
// gets the same probes, so a layer has a number on every workload; the
// operation counters (runTraced) say which layers the workload's own
// operation actually crosses.
type prober struct {
	ctx    context.Context
	def    workloadDef
	cfg    config
	tr     *tracer
	out    *metricSet
	failed int
	ref    uint64 // scratch fingerprint of the side engine's collection
}

func (p *prober) check(what string, fp uint64) {
	if fp != p.ref {
		p.failed++
		fmt.Printf("probe %s: results %016x differ from scratch %016x\n", what, fp, p.ref)
	}
}

// probeLayers runs the layer probes and returns the number of probe
// results that disagreed with the scratch reference.
func probeLayers(ctx context.Context, def workloadDef, cfg config, tr *tracer, out *metricSet) (int, error) {
	p := &prober{ctx: ctx, def: def, cfg: cfg, tr: tr, out: out}
	in := def.gen(cfg.seed, cfg.tiny)
	stream, err := p.viewLayer(in)
	if err != nil {
		return 0, err
	}
	// The side engine gets its own graph: the mutation probe changes it.
	eng, col, err := newEngineWith(ctx, def.gen(cfg.seed, cfg.tiny), core.Options{Parallelism: nproc})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if p.ref, err = scratchReference(ctx, eng, col); err != nil {
		return 0, err
	}
	steps := []func() error{
		func() error { return p.dataflowLayer(in.g, stream) },
		func() error { return p.splittingLayer(eng, col) },
		func() error { return p.clusterLayer(eng, col) },
		func() error { return p.serveLayer(eng) },
		func() error { return p.mutationLayer(eng, in) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return p.failed, nil
}

// timed runs fn inside a span and returns its duration.
func (p *prober) timed(name string, fn func() error) (time.Duration, error) {
	id := p.tr.begin(0, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	p.tr.end(id)
	if err != nil {
		return d, fmt.Errorf("probe %s: %w", name, err)
	}
	return d, nil
}

// viewLayer times GVDL parsing and the three materialization steps.
func (p *prober) viewLayer(in *inputs) (*view.DiffStream, error) {
	var stream *view.DiffStream
	diffs := int64(-1)
	for i := 0; i < probeReps; i++ {
		p.tr.nextOp()
		var stmt gvdl.Statement
		if _, err := p.timed("gvdl.parse", func() (err error) { stmt, err = gvdl.Parse(in.stmt); return }); err != nil {
			return nil, err
		}
		cc, ok := stmt.(*gvdl.CreateCollection)
		if !ok {
			return nil, fmt.Errorf("probe: %q is not a collection statement", in.stmt)
		}
		names := make([]string, len(cc.Views))
		preds := make([]gvdl.EdgePredicate, len(cc.Views))
		for j, v := range cc.Views {
			pred, err := gvdl.CompileEdgePredicate(in.g, v.Pred)
			if err != nil {
				return nil, err
			}
			names[j], preds[j] = v.Name, pred
		}
		var ebm *view.EBM
		var order []int
		p.timed("view.ebm", func() error { ebm = view.BuildEBM(in.g, names, preds, 1); return nil })
		p.timed("view.order", func() error { order = view.OptimizeOrder(ebm); return nil })
		if in.ordering != view.OrderOptimized {
			for j := range order {
				order[j] = j
			}
		}
		p.timed("view.diffs", func() error { stream = view.MaterializeDiffs(ebm, order); return nil })
		checkExact("view.total_diffs", &diffs, stream.TotalDiffs())
	}
	p.out.put("gvdl.parse_ms", p.tr.medianMs("gvdl.parse"), "ms")
	p.out.put("view.ebm_ms", p.tr.medianMs("view.ebm"), "ms")
	p.out.put("view.order_ms", p.tr.medianMs("view.order"), "ms")
	p.out.put("view.diffs_ms", p.tr.medianMs("view.diffs"), "ms")
	p.out.put("view.total_diffs", float64(diffs), "count")
	return stream, nil
}

// dataflowLayer steps a fresh WCC runner through the whole difference
// stream (the diff route), timing the steps and counting work, output
// diffs and allocations.
func (p *prober) dataflowLayer(g *graph.Graph, stream *view.DiffStream) error {
	mk := func(idx []uint32) *graph.EdgeBatch {
		return graph.MakeEdgeBatch(len(idx), func(i int) graph.Triple { return g.Triple(int(idx[i]), -1) })
	}
	k := stream.NumViews()
	adds, dels := make([]*graph.EdgeBatch, k), make([]*graph.EdgeBatch, k)
	for t := 0; t < k; t++ {
		adds[t], dels[t] = mk(stream.Adds[t]), mk(stream.Dels[t])
	}
	work, outDiffs := int64(-1), int64(-1)
	var allocs, allocMB []float64
	for i := 0; i < probeReps; i++ {
		p.tr.nextOp()
		runner, err := analytics.NewRunner(analytics.WCC{}, 1)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var od int64
		p.timed("dataflow.step", func() error {
			for t := 0; t < k; t++ {
				runner.StepBatch(adds[t], dels[t])
				od += int64(runner.OutputDiffs(uint32(t)))
				runner.DropOutputsBefore(uint32(t))
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		var wsum int64
		for _, c := range runner.WorkCounts() {
			wsum += c
		}
		checkExact("dataflow.work", &work, wsum)
		checkExact("dataflow.output_diffs", &outDiffs, od)
		p.check("dataflow stream", fingerprint(runner.Results()))
	}
	p.out.put("dataflow.step_ms", p.tr.medianMs("dataflow.step"), "ms")
	p.out.put("dataflow.work", float64(work), "count")
	p.out.put("dataflow.output_diffs", float64(outDiffs), "count")
	p.out.put("dataflow.allocs", median(allocs), "count")
	p.out.put("dataflow.alloc_mb", median(allocMB), "MB")
	return nil
}

// splittingLayer runs the collection adaptively at Parallelism nproc and 1
// and in both static modes at nproc, reporting split counts and the
// adaptive run's regret against the better static mode.
func (p *prober) splittingLayer(eng *core.Engine, col *view.Collection) error {
	runs := []struct {
		span string
		opts core.RunOptions
	}{
		{"splitting.adaptive", adaptiveOpts(nproc)},
		{"splitting.adaptive_p1", adaptiveOpts(1)},
		{"splitting.diff", core.RunOptions{Mode: core.DiffOnly, Parallelism: nproc}},
		{"splitting.scratch", core.RunOptions{Mode: core.Scratch, Parallelism: nproc}},
	}
	splits := make(map[string][]float64)
	var setupMs, drainMs []float64
	for i := 0; i <= probeReps; i++ {
		p.tr.nextOp()
		for _, r := range runs {
			span := r.span
			if i == 0 {
				span = "probe.warmup" // builds the pools the timed runs reuse
			}
			var res *core.RunResult
			if _, err := p.timed(span, func() (err error) {
				res, err = eng.RunOn(p.ctx, col, analytics.WCC{}, r.opts)
				return
			}); err != nil {
				return err
			}
			p.check(r.span, fingerprint(res.FinalResults()))
			if i == 0 {
				continue
			}
			splits[r.span] = append(splits[r.span], float64(res.Splits))
			if r.opts.Mode == core.Scratch {
				var s, d time.Duration
				for _, seg := range res.Segments {
					s += seg.Setup
					d += seg.Drain
				}
				setupMs = append(setupMs, ms(s))
				drainMs = append(drainMs, ms(d))
			}
		}
	}
	best := min(p.tr.medianMs("splitting.diff"), p.tr.medianMs("splitting.scratch"))
	p.out.put("splitting.splits", median(splits["splitting.adaptive"]), "count")
	p.out.put("splitting.splits_p1", median(splits["splitting.adaptive_p1"]), "count")
	p.out.put("splitting.regret", p.tr.medianMs("splitting.adaptive")/best, "ratio")
	p.out.put("core.segment_setup_ms", median(setupMs), "ms")
	p.out.put("core.segment_drain_ms", median(drainMs), "ms")
	return nil
}

// clusterLayer encodes and decodes the scratch plan's shards with the wire
// codec, then runs the collection through an in-process cluster and
// locally, reporting the coordinator's overhead over the local run.
func (p *prober) clusterLayer(eng *core.Engine, col *view.Collection) error {
	plan := core.StaticPlan(core.Scratch, col.Stream.NumViews())
	opts := core.RunOptions{Mode: core.Scratch, Workers: 1}
	wire := int64(-1)
	var enc, dec []float64
	for i := 0; i < probeReps; i++ {
		p.tr.nextOp()
		var bytes int64
		var e, d time.Duration
		err := core.ForEachSegmentSpec(col, analytics.Spec{Algorithm: "wcc"}, opts, plan, func(_ int, spec *core.SegmentSpec) error {
			var payload []byte
			de, err := p.timed("cluster.encode", func() (err error) { payload, err = cluster.EncodeWire(spec); return })
			if err != nil {
				return err
			}
			var back core.SegmentSpec
			dd, err := p.timed("cluster.decode", func() error { return cluster.DecodeWire(payload, &back) })
			if err != nil {
				return err
			}
			if err := back.Validate(); err != nil {
				return err
			}
			e, d = e+de, d+dd
			bytes += int64(len(payload))
			return nil
		})
		if err != nil {
			return err
		}
		enc, dec = append(enc, ms(e)), append(dec, ms(d))
		checkExact("cluster.wire_bytes", &wire, bytes)
	}
	cl, err := startCluster(p.ctx, eng)
	if err != nil {
		return err
	}
	defer cl.close()
	// The worker has one slot, so the local run also runs one segment at a
	// time: the difference is the coordinator's wire, RPC and merge cost.
	ropts := core.RunOptions{Mode: core.Scratch, Parallelism: 1}
	for i := 0; i <= probeReps; i++ {
		p.tr.nextOp()
		coordSpan, localSpan := "cluster.coord_scratch", "cluster.local_scratch"
		if i == 0 {
			coordSpan, localSpan = "probe.warmup", "probe.warmup"
		}
		var res *core.RunResult
		if _, err := p.timed(coordSpan, func() (err error) { res, err = cl.coord.RunOn(p.ctx, col, analytics.WCC{}, ropts); return }); err != nil {
			return err
		}
		p.check("cluster run", fingerprint(res.FinalResults()))
		if _, err := p.timed(localSpan, func() (err error) { res, err = eng.RunOn(p.ctx, col, analytics.WCC{}, ropts); return }); err != nil {
			return err
		}
	}
	p.out.put("cluster.wire_bytes", float64(wire), "bytes")
	p.out.put("cluster.encode_ms", median(enc), "ms")
	p.out.put("cluster.decode_ms", median(dec), "ms")
	p.out.put("cluster.overhead_ms", p.tr.medianMs("cluster.coord_scratch")-p.tr.medianMs("cluster.local_scratch"), "ms")
	return nil
}

// serveLayer caches one diff-mode run in a tenant middleware, then times
// cache hits in process and the same request over HTTP.
func (p *prober) serveLayer(eng *core.Engine) error {
	mw := tenant.New(eng, tenant.Options{CacheEntries: 16})
	hs := httptest.NewServer(server.New(eng, server.Options{Tenant: mw}).Handler())
	defer hs.Close()
	req := func() *core.RunRequest {
		return &core.RunRequest{Collection: colName, Algorithm: analytics.Spec{Algorithm: "wcc"}, Options: core.RunOptions{Mode: core.DiffOnly}}
	}
	env := &server.Envelope{Run: req()}
	hits0, misses0 := readObs().hits, readObs().misses
	if _, err := mw.Do(p.ctx, "", req()); err != nil {
		return err
	}
	var respBytes []float64
	for i := 0; i < probeHits; i++ {
		p.tr.nextOp()
		var resp core.Response
		if _, err := p.timed("tenant.lookup", func() (err error) { resp, err = mw.Do(p.ctx, "", req()); return }); err != nil {
			return err
		}
		rr, ok := resp.(*core.RunResult)
		if !ok || rr.CacheStatus != "hit" {
			return fmt.Errorf("probe: in-process repeat was not a cache hit (%T)", resp)
		}
		p.check("tenant hit", fingerprint(rr.FinalResults()))
		var body []byte
		if _, err := p.timed("server.run_hit", func() (err error) { body, err = post(p.ctx, hs.Client(), hs.URL+"/v1/do", env); return }); err != nil {
			return err
		}
		fp, status, err := parseRun(body)
		if err != nil {
			return err
		}
		if status != "hit" {
			return fmt.Errorf("probe: HTTP repeat has cacheStatus %q", status)
		}
		p.check("served hit", fp)
		respBytes = append(respBytes, float64(len(body)))
	}
	if h, m := readObs().hits-hits0, readObs().misses-misses0; h != 2*probeHits || m != 1 {
		return fmt.Errorf("probe: %d cache hits and %d misses, want %d and 1", h, m, 2*probeHits)
	}
	p.out.put("tenant.lookup_ms", p.tr.medianMs("tenant.lookup"), "ms")
	p.out.put("server.overhead_ms", p.tr.medianMs("server.run_hit")-p.tr.medianMs("tenant.lookup"), "ms")
	p.out.put("server.response_bytes", median(respBytes), "bytes")
	return nil
}

// mutationLayer applies the same scripted batches to a side graph store
// with a journal and to the side engine (which maintains its collection).
func (p *prober) mutationLayer(eng *core.Engine, in *inputs) error {
	dir, err := os.MkdirTemp(p.cfg.workdir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := graph.NewStore(dir)
	if err != nil {
		return err
	}
	sg := p.def.gen(p.cfg.seed, p.cfg.tiny).g
	if err := st.Add(sg); err != nil {
		return err
	}
	eg, err := eng.Graph(graphName)
	if err != nil {
		return err
	}
	mut := newMutator(p.cfg.seed, in.g.NumNodes, in.days)
	for i := 0; i < probeMutations; i++ {
		p.tr.nextOp()
		ins, dels := mut.next(serveBatch)
		mb, err := batch(sg, ins, dels)
		if err != nil {
			return err
		}
		if _, err := p.timed("graph.apply", func() error { _, err := st.ApplyMutation(graphName, mb); return err }); err != nil {
			return err
		}
		if mb, err = batch(eg, ins, dels); err != nil {
			return err
		}
		if _, err := p.timed("core.mutation", func() error { _, err := eng.ApplyMutation(graphName, mb); return err }); err != nil {
			return err
		}
	}
	fi, err := os.Stat(filepath.Join(dir, graphName+".mutations.gob"))
	if err != nil {
		return fmt.Errorf("probe: reading the journal size: %w", err)
	}
	p.out.put("graph.apply_ms", p.tr.medianMs("graph.apply"), "ms")
	p.out.put("graph.journal_bytes", float64(fi.Size()), "bytes")
	p.out.put("core.mutation_ms", p.tr.medianMs("core.mutation"), "ms")
	return nil
}
