package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/view"
)

// nproc is the machine size the benchmark is written for: threads,
// connections and Parallelism never exceed it. It is a constant, not
// runtime.NumCPU, so a run means the same thing on a larger machine.
const nproc = 2

// graphName and colName are the catalog names every workload uses.
const (
	graphName = "g"
	colName   = "c"
)

// inputs are a workload's generated data: a temporal graph and the GVDL
// statement defining its view collection. The workload and the layer probes
// build from the same inputs, regenerated from the seed.
type inputs struct {
	g        *graph.Graph
	days     int // edge timestamps are 0..days-1
	stmt     string
	ordering view.OrderingMode
}

// windows builds "create view collection" over ts windows [lo_i, hi_i).
func windows(lo, hi []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "create view collection %s on %s ", colName, graphName)
	for i := range lo {
		if i > 0 {
			sb.WriteString(", ")
		}
		if lo[i] <= 0 {
			fmt.Fprintf(&sb, "[v%d: ts < %d]", i, hi[i])
		} else {
			fmt.Fprintf(&sb, "[v%d: ts >= %d and ts < %d]", i, lo[i], hi[i])
		}
	}
	return sb.String()
}

// temporal generates the seeded temporal graph every workload runs on.
func temporal(seed int64, nodes, edges, days int) *graph.Graph {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: nodes, Edges: edges, Days: days, Seed: seed})
	g.Name = graphName
	return g
}

// fingerprint hashes a result map in the pinned sort order, so two routes
// that must agree can be compared by one number.
func fingerprint(final map[analytics.VertexValue]int64) uint64 {
	f := newStreamFingerprint()
	for _, vv := range core.SortedResults(final) {
		f.add(vv.V, vv.Val)
	}
	return f.h.Sum64()
}

// streamFingerprint is fingerprint over (vertex, value) records arriving in
// the pinned sort order, as the HTTP server streams them.
type streamFingerprint struct {
	h hash.Hash64
	n int
}

func newStreamFingerprint() *streamFingerprint { return &streamFingerprint{h: fnv.New64a()} }

func (f *streamFingerprint) add(v uint64, val int64) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], v)
	binary.LittleEndian.PutUint64(buf[8:], uint64(val))
	f.h.Write(buf[:])
	f.n++
}

// edgeChange is one scripted mutation edge, convertible to both the graph
// API's and the HTTP API's forms.
type edgeChange struct {
	src, dst uint64
	ts, dur  int64
}

// mutator generates a deterministic mutation script: each batch inserts n
// random edges and deletes the n oldest pairs the script inserted that are
// still live, so the live edge count stays level over a long run.
type mutator struct {
	r     *rand.Rand
	nodes int
	days  int
	live  map[[2]uint64]int
	fifo  [][2]uint64
}

func newMutator(seed int64, nodes, days int) *mutator {
	return &mutator{r: rand.New(rand.NewSource(seed ^ 0x5eed)), nodes: nodes, days: days, live: make(map[[2]uint64]int)}
}

func (m *mutator) next(n int) (ins, dels []edgeChange) {
	picked := make(map[[2]uint64]bool)
	for len(dels) < n && len(m.fifo) > 0 {
		p := m.fifo[0]
		m.fifo = m.fifo[1:]
		if m.live[p] == 0 || picked[p] {
			continue
		}
		picked[p] = true
		m.live[p] = 0 // a pair delete removes every parallel edge
		dels = append(dels, edgeChange{src: p[0], dst: p[1]})
	}
	for len(ins) < n {
		p := [2]uint64{uint64(m.r.Intn(m.nodes)), uint64(m.r.Intn(m.nodes))}
		if p[0] == p[1] || picked[p] {
			continue
		}
		ins = append(ins, edgeChange{src: p[0], dst: p[1], ts: int64(m.r.Intn(m.days)), dur: int64(1 + m.r.Intn(60))})
		m.live[p]++
		m.fifo = append(m.fifo, p)
	}
	return ins, dels
}

// batch converts a scripted step into a graph mutation batch for g.
func batch(g *graph.Graph, ins, dels []edgeChange) (*graph.MutationBatch, error) {
	gi := make([]graph.EdgeInsert, len(ins))
	for i, e := range ins {
		gi[i] = graph.EdgeInsert{Src: e.src, Dst: e.dst, Props: map[string]graph.Value{
			"ts": graph.IntValue(e.ts), "duration": graph.IntValue(e.dur),
		}}
	}
	gd := make([]graph.EdgePair, len(dels))
	for i, e := range dels {
		gd[i] = graph.EdgePair{Src: e.src, Dst: e.dst}
	}
	return graph.NewMutationBatch(g, gi, gd)
}

// mutateRequest converts a scripted step into the HTTP API's request.
func mutateRequest(ins, dels []edgeChange) *core.MutateRequest {
	r := &core.MutateRequest{Graph: graphName}
	for _, e := range ins {
		r.Inserts = append(r.Inserts, core.EdgeChange{Src: e.src, Dst: e.dst, Props: map[string]any{"ts": e.ts, "duration": e.dur}})
	}
	for _, e := range dels {
		r.Deletes = append(r.Deletes, core.EdgeChange{Src: e.src, Dst: e.dst})
	}
	return r
}
