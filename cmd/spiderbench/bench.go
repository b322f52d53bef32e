package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchResult is one machine-readable microbenchmark record.
type BenchResult struct {
	Op          string  `json:"op"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchFile is the BENCH_<timestamp>.json schema.
type BenchFile struct {
	Timestamp string        `json:"timestamp"`
	GoVersion string        `json:"go_version,omitempty"`
	Results   []BenchResult `json:"results"`
}

// runBench executes the microbenchmark suite via testing.Benchmark and
// writes BENCH_<timestamp>.json into dir ("." by default).
func runBench(dir string) error {
	// Fail on a bad output directory before spending a minute benchmarking.
	if st, err := os.Stat(dir); err != nil {
		return err
	} else if !st.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	type bench struct {
		op string
		fn func(b *testing.B)
	}
	benches := []bench{
		{"bcp/compose", benchCompose},
		{"dht/lookup", benchDHTLookup},
		{"dht/buildring1k", benchBuildRing(1000)},
		{"dht/buildring10k", benchBuildRing(10000)},
		{"dht/buildring100k", benchBuildRing(100000)},
		{"overlay/route", benchOverlayRoute},
		{"overlay/routeevict", benchRouteCacheEvict},
		{"service/cost", benchCost},
		{"service/key", benchKey},
		{"sim/dispatch", benchSimDispatch},
		{"topology/generate", benchTopologyGenerate},
		{"topology/generate100k", benchTopologyGenerate100k},
		{"registry/shardlookup", benchShardLookup},
		{"obs/jsonl-emit", benchObsEmit},
		{"obs/emit-disabled", benchObsDisabled},
	}
	out := BenchFile{Timestamp: time.Now().UTC().Format("20060102T150405Z")}
	for _, bb := range benches {
		fmt.Fprintf(os.Stderr, "bench %-18s ", bb.op)
		r := testing.Benchmark(bb.fn)
		fmt.Fprintf(os.Stderr, "%12d ns/op %8d allocs/op\n", r.NsPerOp(), r.AllocsPerOp())
		out.Results = append(out.Results, BenchResult{
			Op:          bb.op,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	name := filepath.Join(dir, "BENCH_"+out.Timestamp+".json")
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", name)
	return nil
}

func benchCompose(b *testing.B) {
	catalog := make([]string, 10)
	for i := range catalog {
		catalog[i] = fmt.Sprintf("fn%d", i)
	}
	c := cluster.New(cluster.Options{Seed: 75, IPNodes: 400, Peers: 60, Catalog: catalog})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog, Peers: 60, MinFuncs: 3, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 300, DelayReqMax: 600,
	}, c.Rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := gen.Next()
		req.QoSReq[qos.Delay] = 5000
		eng := c.Peers[int(req.Source)].Engine
		eng.Compose(req, func(res bcp.Result) {
			if res.Ok {
				eng.Teardown(res.Best)
			}
		})
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
	}
}

func benchDHTLookup(b *testing.B) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(time.Millisecond),
		rand.New(rand.NewSource(76)))
	nodes := make([]*dht.Node, 200)
	for i := range nodes {
		nodes[i] = dht.New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
	}
	dht.Build(nodes)
	nodes[0].Put(dht.Key("bench"), "x", 64)
	sim.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%200].Get(dht.Key("bench"), time.Second, func([]any, int, bool) {})
		sim.RunUntilIdle()
	}
}

// benchHost is a construction-only transport stub: dht.Build never sends or
// schedules, so ring-construction benchmarks skip the simulator entirely.
type benchHost struct{ id p2p.NodeID }

func (h *benchHost) ID() p2p.NodeID                             { return h.id }
func (h *benchHost) Now() time.Duration                         { return 0 }
func (h *benchHost) Send(p2p.Message)                           {}
func (h *benchHost) After(time.Duration, func()) p2p.CancelFunc { return func() {} }
func (h *benchHost) Rand() *rand.Rand                           { return nil }
func (h *benchHost) Handle(string, p2p.Handler)                 {}
func (h *benchHost) Alive() bool                                { return true }

func freshRing(n int) []*dht.Node {
	nodes := make([]*dht.Node, n)
	for i := range nodes {
		nodes[i] = dht.New(&benchHost{id: p2p.NodeID(i)}, nil)
	}
	return nodes
}

// benchBuildRing measures the sorted-ring static construction (BuildRing in
// the ISSUE's terms) at the given size. Node creation is excluded from the
// timer: the op is construction, not SHA-1 identifier derivation.
func benchBuildRing(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nodes := freshRing(n)
			b.StartTimer()
			dht.Build(nodes)
		}
	}
}

func benchOverlayRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	g := topology.GeneratePowerLaw(2000, 2, 2, 30, rng)
	ov := topology.BuildOverlay(g, topology.OverlayConfig{NumPeers: 300, Degree: 4}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ov.Route(i%300, (i*7+1)%300); !ok {
			b.Fatal("no route")
		}
	}
}

// benchRouteCacheEvict measures Route in the post-eviction regime: the
// cache bound is far below the rotating source count, so every call is a
// cache miss served either by the truncated near-destination search or by a
// full Dijkstra recycled into an LRU slot.
func benchRouteCacheEvict(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	g := topology.GeneratePowerLaw(2000, 2, 2, 30, rng)
	ov := topology.BuildOverlay(g, topology.OverlayConfig{
		NumPeers: 300, Degree: 4, RouteCacheSize: 8,
	}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ov.Route(i%300, (i*7+1)%300); !ok {
			b.Fatal("no route")
		}
	}
}

func benchCost(b *testing.B) {
	var avail qos.Resources
	avail[qos.CPU] = 10
	avail[qos.Memory] = 100
	g := &service.Graph{Comps: map[int]service.Snapshot{}}
	for i := 0; i < 3; i++ {
		g.Comps[i] = service.Snapshot{
			Comp:  service.Component{ID: fmt.Sprintf("c%d", i), Peer: p2p.NodeID(i)},
			Avail: avail,
		}
		g.Links = append(g.Links, service.LinkSnapshot{FromFn: i - 1, ToFn: i, BandAvail: 1000})
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	req := &service.Request{Res: res, Bandwidth: 100, Budget: 1}
	w := service.DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := g.Cost(w, req); c <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// benchKey measures Graph.Key on a four-function chain, the signature the
// recovery monitor and candidate selection compare graphs by.
func benchKey(b *testing.B) {
	fns := []string{"fn3", "fn17", "fn8", "fn21"}
	g := &service.Graph{Pattern: fgraph.Linear(fns...), Comps: map[int]service.Snapshot{}}
	for i, fn := range fns {
		g.Comps[i] = service.Snapshot{Comp: service.Component{
			ID: fmt.Sprintf("p%d/%s.0", 40+i*37, fn), Function: fn, Peer: p2p.NodeID(40 + i*37),
		}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}

// benchSimDispatch measures the steady-state Schedule→fire cycle of the
// event queue with a warm freelist (the hot loop of every simulated figure).
func benchSimDispatch(b *testing.B) {
	sim := simnet.NewSim()
	fn := func() {}
	for i := 0; i < 64; i++ {
		sim.Schedule(0, fn)
	}
	sim.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Microsecond, fn)
		sim.Step()
	}
}

// benchTopologyGenerate measures power-law IP network generation plus
// overlay construction (edge-set index, batched peer-pair Dijkstra) at a
// quarter of the paper's scale so the suite stays quick.
func benchTopologyGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(78))
		g := topology.GeneratePowerLaw(2500, 2, 2, 30, rng)
		topology.BuildOverlay(g, topology.OverlayConfig{NumPeers: 250, Degree: 4}, rng)
	}
}

// benchTopologyGenerate100k is the headline capacity number: a 100,000-node
// power-law IP network frozen into the CSR representation plus a 10,000-peer
// compact-mode overlay (no peer-pair latency matrix) per iteration.
func benchTopologyGenerate100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(79))
		g := topology.GeneratePowerLaw(100000, 2, 2, 30, rng)
		topology.BuildOverlay(g, topology.OverlayConfig{
			NumPeers: 10000, Degree: 4, Compact: true,
		}, rng)
	}
}

// benchShardLookup measures a cross-ring discovery round trip: a GetVia from
// a peer whose shard does not home the key, entering the home ring through a
// plan entry member — the per-lookup tax the sharded keyspace pays in
// exchange for the ~S-times-cheaper ring construction.
func benchShardLookup(b *testing.B) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(time.Millisecond),
		rand.New(rand.NewSource(80)))
	const peers = 512
	plan := registry.NewShardPlan(peers, 8)
	nodes := make([]*dht.Node, peers)
	for i := range nodes {
		nodes[i] = dht.New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
	}
	for s := 0; s < plan.NumShards; s++ {
		ring := make([]*dht.Node, len(plan.Members[s]))
		for j, id := range plan.Members[s] {
			ring[j] = nodes[int(id)]
		}
		dht.Build(ring)
	}
	key := registry.FunctionKey("bench")
	home := plan.Home(key)
	entries := plan.Entries(key)
	nodes[plan.Members[home][0]].Put(key, "x", 64)
	sim.RunUntilIdle()
	// A fixed foreign source: first member of the shard after the home one.
	src := nodes[plan.Members[(home+1)%plan.NumShards][0]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.GetVia(entries, key, 0, time.Second, func([]any, int, bool) {})
		sim.RunUntilIdle()
	}
}

func benchObsEmit(b *testing.B) {
	sink := obs.NewJSONLSink(discardWriter{})
	ev := obs.ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 2, 12345, 12344)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Emit(ev)
	}
}

// benchObsDisabled measures the disabled-tracer fast path: the nil check
// plus event construction that instrumented call sites skip entirely.
func benchObsDisabled(b *testing.B) {
	var trace obs.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trace != nil {
			trace.Emit(obs.ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 2, 12345, 12344))
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
