package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/cluster"
	"graphsurge/internal/core"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/server"
	"graphsurge/internal/tenant"
	"graphsurge/internal/view"
)

// config is what one set-up of a workload is built from.
type config struct {
	seed    int64
	tiny    bool   // self-test size
	workdir string // scratch space inside the checkout
	// corrupt flips the reference a workload checks its outputs against, so
	// the self-test can show that a wrong output is caught.
	corrupt bool
}

// recorder collects per-class latency samples in ms.
type recorder map[string][]float64

func (r recorder) add(class string, d time.Duration) { r[class] = append(r[class], ms(d)) }

// workload is one built workload, ready to run operations in a closed loop
// with one client.
type workload interface {
	// op runs one operation. It records the op's latency as class "op"
	// (plus any sub-classes) and returns an error when the operation failed
	// or its output did not match the reference.
	op(ctx context.Context, rec recorder, tr *tracer) error
	// counters returns layer counters the workload itself observes per
	// operation, summed since set-up (cluster shard distribution).
	counters() map[string]float64
	// finish runs the end-of-run checks.
	finish(ctx context.Context) error
	// reference is the result fingerprint every operation is checked
	// against; set-ups from one seed must agree on it.
	reference() uint64
	close()
}

// workloadDef names a workload, generates its inputs and builds it.
type workloadDef struct {
	name  string
	gen   func(seed int64, tiny bool) *inputs
	build func(ctx context.Context, cfg config) (workload, error)
	// classes are the sub-op latency classes whose p50 the workload reports.
	classes []string
}

var workloadDefs = []workloadDef{
	{name: "overlap-diff", gen: overlapInputs, build: buildOverlap},
	{name: "disjoint-split", gen: disjointInputs, build: buildDisjoint, classes: []string{"create"}},
	{name: "cluster-scratch", gen: clusterInputs, build: buildCluster},
	{name: "serve-mutate", gen: serveInputs, build: buildServe, classes: []string{"write", "read", "hit"}},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// warmups is the number of operations each set-up runs before timing, so
// pools, estimators and caches are warm.
const warmups = 2

// newEngineWith creates an engine holding the inputs' graph and collection,
// created through GVDL.
func newEngineWith(ctx context.Context, in *inputs, opts core.Options) (*core.Engine, *view.Collection, error) {
	opts.Workers = 1
	opts.Ordering = in.ordering
	eng, err := core.NewEngine(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.AddGraph(in.g); err != nil {
		eng.Close()
		return nil, nil, err
	}
	if _, err := eng.ExecuteContext(ctx, in.stmt); err != nil {
		eng.Close()
		return nil, nil, err
	}
	col, err := eng.LookupCollection(colName)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return eng, col, nil
}

// scratchReference runs the collection from scratch, a different route from
// every workload's operation, and returns the result fingerprint.
func scratchReference(ctx context.Context, eng *core.Engine, col *view.Collection) (uint64, error) {
	res, err := eng.RunOn(ctx, col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch, Parallelism: 1})
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	return fingerprint(res.FinalResults()), nil
}

// corruptAfterWarmUp applies config.corrupt once set-up is done, so only
// measured operations see the wrong reference.
func corruptAfterWarmUp(cfg config, ref *uint64) {
	if cfg.corrupt {
		*ref ^= 1
	}
}

func warmUp(ctx context.Context, w workload) error {
	rec := recorder{}
	for i := 0; i < warmups; i++ {
		if err := w.op(ctx, rec, nil); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// ---- overlap-diff ------------------------------------------------------

// overlapInputs: expanding windows over a temporal graph, so consecutive
// views share almost all their edges (the paper's Figure 6 shape).
func overlapInputs(seed int64, tiny bool) *inputs {
	nodes, edges, days, k := 1_000, 6_000, 100, 5
	if tiny {
		nodes, edges, k = 400, 1_600, 4
	}
	lo, hi := make([]int, k), make([]int, k)
	for i := range hi {
		hi[i] = days * (i + 1) / k
	}
	return &inputs{g: temporal(seed, nodes, edges, days), days: days, stmt: windows(lo, hi)}
}

type overlapWL struct {
	eng  *core.Engine
	col  *view.Collection
	ref  uint64
	work int64 // the operation's exact MaxWork, fixed at set-up
}

func buildOverlap(ctx context.Context, cfg config) (workload, error) {
	eng, col, err := newEngineWith(ctx, overlapInputs(cfg.seed, cfg.tiny), core.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	w := &overlapWL{eng: eng, col: col, work: -1}
	if w.ref, err = scratchReference(ctx, eng, col); err != nil {
		eng.Close()
		return nil, err
	}
	if err := warmUp(ctx, w); err != nil {
		eng.Close()
		return nil, err
	}
	corruptAfterWarmUp(cfg, &w.ref)
	return w, nil
}

func (w *overlapWL) op(ctx context.Context, rec recorder, tr *tracer) error {
	root := tr.begin(0, "op")
	id := tr.begin(root, "core.run_diff")
	start := time.Now()
	res, err := w.eng.RunOn(ctx, w.col, analytics.WCC{}, core.RunOptions{Mode: core.DiffOnly, Parallelism: 1})
	rec.add("op", time.Since(start))
	tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	if fp := fingerprint(res.FinalResults()); fp != w.ref {
		return fmt.Errorf("diff run results %016x differ from scratch reference %016x", fp, w.ref)
	}
	checkExact("overlap-diff work", &w.work, res.MaxWork())
	return nil
}

func (w *overlapWL) counters() map[string]float64     { return nil }
func (w *overlapWL) finish(ctx context.Context) error { return nil }
func (w *overlapWL) reference() uint64                { return w.ref }
func (w *overlapWL) close()                           { w.eng.Close() }

// checkExact pins a count that must not vary between identical operations:
// the first value is kept, a later different one is reported as drift.
func checkExact(name string, pinned *int64, v int64) {
	if *pinned < 0 {
		*pinned = v
	} else if v != *pinned {
		driftf("%s: %d, earlier %d", name, v, *pinned)
	}
}

// ---- disjoint-split ----------------------------------------------------

// disjointWindows is the collection size and adaptiveBatch the splitting
// optimizer's ℓ for disjoint-split.
const (
	disjointWindows = 16
	adaptiveBatch   = 2
)

// disjointInputs: non-overlapping windows, so every diff is as large as two
// views and scratch runs should win — the shape where adaptive splitting
// has to act (paper §5, Figure 7). Ordering is optimized, so collection
// creation runs every materialization step.
func disjointInputs(seed int64, tiny bool) *inputs {
	nodes, edges, days := 1_300, 2_600, 96
	if tiny {
		nodes, edges = 400, 1_600
	}
	lo, hi := make([]int, disjointWindows), make([]int, disjointWindows)
	for i := range lo {
		lo[i] = days * i / disjointWindows
		hi[i] = days * (i + 1) / disjointWindows
	}
	return &inputs{g: temporal(seed, nodes, edges, days), days: days, stmt: windows(lo, hi), ordering: view.OrderOptimized}
}

type disjointWL struct {
	eng   *core.Engine
	stmt  string
	ref   uint64
	diffs int64
}

func buildDisjoint(ctx context.Context, cfg config) (workload, error) {
	in := disjointInputs(cfg.seed, cfg.tiny)
	eng, col, err := newEngineWith(ctx, in, core.Options{Parallelism: nproc})
	if err != nil {
		return nil, err
	}
	w := &disjointWL{eng: eng, stmt: in.stmt, diffs: col.Stream.TotalDiffs()}
	if w.ref, err = scratchReference(ctx, eng, col); err != nil {
		eng.Close()
		return nil, err
	}
	if err := warmUp(ctx, w); err != nil {
		eng.Close()
		return nil, err
	}
	corruptAfterWarmUp(cfg, &w.ref)
	return w, nil
}

// adaptiveOpts is disjoint-split's run: adaptive at Parallelism nproc.
func adaptiveOpts(parallelism int) core.RunOptions {
	return core.RunOptions{Mode: core.Adaptive, Parallelism: parallelism, BatchSize: adaptiveBatch}
}

func (w *disjointWL) op(ctx context.Context, rec recorder, tr *tracer) error {
	root := tr.begin(0, "op")
	start := time.Now()
	id := tr.begin(root, "gvdl.create_collection")
	out, err := w.eng.ExecuteContext(ctx, w.stmt)
	var col *view.Collection
	if err == nil {
		col, err = w.eng.LookupCollection(colName)
	}
	tr.end(id)
	created := time.Since(start)
	var res *core.RunResult
	if err == nil {
		id = tr.begin(root, "core.run_adaptive")
		res, err = w.eng.RunOn(ctx, col, analytics.WCC{}, adaptiveOpts(nproc))
		tr.end(id)
	}
	total := time.Since(start)
	tr.end(root)
	rec.add("create", created)
	rec.add("op", total)
	if err != nil {
		return err
	}
	if cc, ok := out[0].(gvdl.CollectionCreated); !ok || cc.Views != disjointWindows || cc.Diffs != w.diffs {
		return fmt.Errorf("create returned %v, want %d views and %d diffs", out[0], disjointWindows, w.diffs)
	}
	if fp := fingerprint(res.FinalResults()); fp != w.ref {
		return fmt.Errorf("adaptive run results %016x differ from scratch reference %016x", fp, w.ref)
	}
	return nil
}

func (w *disjointWL) counters() map[string]float64     { return nil }
func (w *disjointWL) finish(ctx context.Context) error { return nil }
func (w *disjointWL) reference() uint64                { return w.ref }
func (w *disjointWL) close()                           { w.eng.Close() }

// ---- cluster-scratch ---------------------------------------------------

// clusterInputs: half-overlapping sliding windows run from scratch, one
// shard per view, so every view crosses the wire.
func clusterInputs(seed int64, tiny bool) *inputs {
	nodes, edges, days, k := 2_000, 2_200, 90, 8
	if tiny {
		nodes, edges, k = 400, 1_600, 4
	}
	step := days / (k + 1)
	lo, hi := make([]int, k), make([]int, k)
	for i := range lo {
		lo[i] = i * step
		hi[i] = (i + 2) * step
	}
	return &inputs{g: temporal(seed, nodes, edges, days), days: days, stmt: windows(lo, hi)}
}

// inProcessCluster is one worker server on loopback plus a coordinator.
type inProcessCluster struct {
	wEng  *core.Engine
	srv   *cluster.Server
	coord *cluster.Coordinator
}

// startCluster starts a worker of capacity 1 and a coordinator over eng
// (whose engine re-runs failed shards). With two slots the op's wall time
// was the makespan of 8 shards on 2 slots, which varied with how each
// seed's windows happened to balance far more than the work did; one slot
// makes the op time track the shards' cost.
func startCluster(ctx context.Context, eng *core.Engine) (*inProcessCluster, error) {
	wEng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wEng.Close()
		return nil, err
	}
	srv := cluster.NewServer(wEng, 1)
	srv.Start(l)
	coord := cluster.NewCoordinator(eng, cluster.Options{})
	c := &inProcessCluster{wEng: wEng, srv: srv, coord: coord}
	if err := coord.AddWorker(ctx, l.Addr().String()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *inProcessCluster) close() {
	c.coord.Close()
	c.srv.Close()
	c.wEng.Close()
}

type clusterWL struct {
	eng      *core.Engine
	col      *view.Collection
	cl       *inProcessCluster
	ref      uint64
	shards   int
	requeued int
	wire     int64
}

func buildCluster(ctx context.Context, cfg config) (workload, error) {
	eng, col, err := newEngineWith(ctx, clusterInputs(cfg.seed, cfg.tiny), core.Options{Parallelism: nproc})
	if err != nil {
		return nil, err
	}
	w := &clusterWL{eng: eng, col: col, wire: -1}
	if w.ref, err = scratchReference(ctx, eng, col); err != nil {
		eng.Close()
		return nil, err
	}
	if w.cl, err = startCluster(ctx, eng); err != nil {
		eng.Close()
		return nil, err
	}
	if err := warmUp(ctx, w); err != nil {
		w.close()
		return nil, err
	}
	corruptAfterWarmUp(cfg, &w.ref)
	return w, nil
}

func (w *clusterWL) op(ctx context.Context, rec recorder, tr *tracer) error {
	root := tr.begin(0, "op")
	id := tr.begin(root, "cluster.run_scratch")
	start := time.Now()
	res, err := w.cl.coord.RunOn(ctx, w.col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	rec.add("op", time.Since(start))
	tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	st := w.cl.coord.Stats()
	for _, n := range st.Remote {
		w.shards += n
	}
	w.requeued += st.Requeued
	if fp := fingerprint(res.FinalResults()); fp != w.ref {
		return fmt.Errorf("cluster run results %016x differ from local reference %016x", fp, w.ref)
	}
	checkExact("cluster-scratch wire bytes", &w.wire, int64(st.WireBytes))
	return nil
}

func (w *clusterWL) counters() map[string]float64 {
	return map[string]float64{"cluster.shards": float64(w.shards), "cluster.requeued": float64(w.requeued)}
}
func (w *clusterWL) finish(ctx context.Context) error { return nil }
func (w *clusterWL) reference() uint64                { return w.ref }
func (w *clusterWL) close() {
	w.cl.close()
	w.eng.Close()
}

// ---- serve-mutate ------------------------------------------------------

// serveHits is h, the identical reads repeated after each executed read,
// and serveBatch the inserts (and deletes) per write.
const (
	serveHits  = 4
	serveBatch = 40
)

// serveInputs: a small expanding-window collection over a persisted graph
// that the script mutates, so every write maintains views on disk and
// every executed read is an incremental, delta-sized run.
func serveInputs(seed int64, tiny bool) *inputs {
	nodes, edges, days, k := 3_000, 12_000, 100, 5
	if tiny {
		nodes, edges, k = 400, 1_600, 3
	}
	lo, hi := make([]int, k), make([]int, k)
	for i := range hi {
		hi[i] = days * (i + 1) / k
	}
	return &inputs{g: temporal(seed, nodes, edges, days), days: days, stmt: windows(lo, hi)}
}

type serveWL struct {
	dir     string
	eng     *core.Engine
	httpSrv *http.Server
	done    chan struct{}
	url     string
	client  *http.Client
	mut     *mutator
	version uint64
	lastFP  uint64
	corrupt bool
}

func buildServe(ctx context.Context, cfg config) (workload, error) {
	in := serveInputs(cfg.seed, cfg.tiny)
	dir, err := os.MkdirTemp(cfg.workdir, "serve-data-")
	if err != nil {
		return nil, err
	}
	eng, _, err := newEngineWith(ctx, in, core.Options{DataDir: dir, Parallelism: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mw := tenant.New(eng, tenant.Options{CacheEntries: 16})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	w := &serveWL{
		dir:     dir,
		eng:     eng,
		httpSrv: &http.Server{Handler: server.New(eng, server.Options{Tenant: mw}).Handler()},
		done:    make(chan struct{}),
		url:     "http://" + l.Addr().String() + "/v1/do",
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		mut:     newMutator(cfg.seed, in.g.NumNodes, in.days),
		version: in.g.Version,
	}
	go func() {
		defer close(w.done)
		w.httpSrv.Serve(l)
	}()
	// The first read builds the incremental replica cold; warm-up cycles
	// then leave it warm.
	if _, _, err := w.read(ctx, ""); err != nil {
		w.close()
		return nil, err
	}
	if err := warmUp(ctx, w); err != nil {
		w.close()
		return nil, err
	}
	w.corrupt = cfg.corrupt
	return w, nil
}

// post sends one envelope to url and returns the full response body.
func post(ctx context.Context, client *http.Client, url string, env *server.Envelope) ([]byte, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

var runEnvelope = &server.Envelope{Run: &core.RunRequest{
	Collection: colName,
	Algorithm:  analytics.Spec{Algorithm: "wcc"},
	Options:    core.RunOptions{Incremental: true},
}}

// read runs the incremental WCC request and checks the cache status the
// script expects ("" skips the check). It returns the result fingerprint
// and the request latency.
func (w *serveWL) read(ctx context.Context, wantStatus string) (uint64, time.Duration, error) {
	start := time.Now()
	body, err := post(ctx, w.client, w.url, runEnvelope)
	d := time.Since(start)
	if err != nil {
		return 0, d, err
	}
	fp, status, err := parseRun(body)
	if err != nil {
		return 0, d, err
	}
	if wantStatus != "" && status != wantStatus {
		return 0, d, fmt.Errorf("run cacheStatus %q, script expects %q", status, wantStatus)
	}
	return fp, d, nil
}

// parseRun reads a streamed run response: the summary's cache status and
// the fingerprint of the result records.
func parseRun(body []byte) (fp uint64, status string, err error) {
	var ev struct {
		Event   string          `json:"event"`
		Run     *core.RunResult `json:"run"`
		Vertex  uint64          `json:"vertex"`
		Value   int64           `json:"value"`
		Results int             `json:"results"`
		Error   string          `json:"error"`
	}
	f := newStreamFingerprint()
	done := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		ev.Run, ev.Error = nil, ""
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, "", fmt.Errorf("decoding run event: %w", err)
		}
		switch ev.Event {
		case "summary":
			status = ev.Run.CacheStatus
		case "result":
			f.add(ev.Vertex, ev.Value)
		case "done":
			if ev.Results != f.n {
				return 0, "", fmt.Errorf("done reports %d results, stream carried %d", ev.Results, f.n)
			}
			done = true
		case "error":
			return 0, "", errors.New(ev.Error)
		}
	}
	if !done {
		return 0, "", errors.New("run stream ended without a done event")
	}
	return f.h.Sum64(), status, sc.Err()
}

func (w *serveWL) op(ctx context.Context, rec recorder, tr *tracer) error {
	ins, dels := w.mut.next(serveBatch)
	env := &server.Envelope{Mutate: mutateRequest(ins, dels)}
	// The op's latency is the sum of its requests' latencies: the client's
	// own response checking between requests is not the server's time.
	var total time.Duration
	root := tr.begin(0, "op")
	defer func() {
		rec.add("op", total)
		tr.end(root)
	}()

	id := tr.begin(root, "server.mutate")
	start := time.Now()
	body, err := post(ctx, w.client, w.url, env)
	total = time.Since(start)
	tr.end(id)
	rec.add("write", total)
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	var applied core.MutationApplied
	if err := json.Unmarshal(body, &applied); err != nil {
		return fmt.Errorf("decoding mutate response: %w", err)
	}
	w.version++
	if applied.Version != w.version || applied.Inserted != len(ins) || applied.Deleted < len(dels) {
		return fmt.Errorf("mutate applied %+v, script expects version %d, %d inserts, >= %d deletes", applied, w.version, len(ins), len(dels))
	}

	id = tr.begin(root, "server.run_read")
	fresh, d, err := w.read(ctx, "miss")
	tr.end(id)
	rec.add("read", d)
	total += d
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	w.lastFP = fresh
	if w.corrupt {
		fresh ^= 1
	}
	for i := 0; i < serveHits; i++ {
		id = tr.begin(root, "server.run_hit")
		fp, d, err := w.read(ctx, "hit")
		tr.end(id)
		rec.add("hit", d)
		total += d
		if err == nil && fp != fresh {
			err = fmt.Errorf("cached result %016x differs from the fresh read %016x", fp, fresh)
		}
		if err != nil {
			return fmt.Errorf("hit: %w", err)
		}
	}
	return nil
}

// finish checks the served state two more ways: a scratch run on the
// serving engine, and a fresh engine reloading the data directory.
func (w *serveWL) finish(ctx context.Context) error {
	col, err := w.eng.LookupCollection(colName)
	if err != nil {
		return err
	}
	ref, err := scratchReference(ctx, w.eng, col)
	if err != nil {
		return err
	}
	if w.corrupt {
		ref ^= 1
	}
	if ref != w.lastFP {
		return fmt.Errorf("last served result %016x differs from a scratch run %016x", w.lastFP, ref)
	}
	re, err := core.NewEngine(core.Options{DataDir: w.dir, Workers: 1})
	if err != nil {
		return err
	}
	defer re.Close()
	rcol, err := re.LookupCollection(colName)
	if err != nil {
		return fmt.Errorf("reloading the data directory: %w", err)
	}
	if rcol.Version != w.version {
		return fmt.Errorf("reloaded collection at version %d, served %d", rcol.Version, w.version)
	}
	rref, err := scratchReference(ctx, re, rcol)
	if err != nil {
		return err
	}
	if rref != w.lastFP {
		return fmt.Errorf("reloaded store gives %016x, served %016x", rref, w.lastFP)
	}
	return nil
}

func (w *serveWL) counters() map[string]float64 { return nil }
func (w *serveWL) reference() uint64            { return w.lastFP }

func (w *serveWL) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.httpSrv.Shutdown(ctx)
	<-w.done
	w.client.CloseIdleConnections()
	w.eng.Close()
	os.RemoveAll(w.dir)
}
