package experiment

import (
	"fmt"
	"math"
	"testing"
)

// capacityQuick100k shrinks the 100k tier to seconds while keeping every
// structural property the full run relies on: multiple grid points, compact
// overlays under the default route cache, and a sharded discovery plane with
// a shard-count sweep.
func capacityQuick100k() CapacityConfig {
	cfg := DefaultScale100kConfig()
	cfg.Topo = []CapacityTopo{
		{IPNodes: 400, Peers: 60},
		{IPNodes: 800, Peers: 120},
	}
	cfg.RouteSources = 16
	cfg.RoutesPerSource = 2
	cfg.DiscoveryPeers = 240
	cfg.Shards = []int{1, 4, 16}
	cfg.Functions = 24
	cfg.ProvidersPerFn = 2
	cfg.Lookups = 60
	return cfg
}

// capacityQuick1m shrinks the 1M tier to unit-test size while keeping a route
// cache that evicts (sources > K), multiple shard counts, and cross-ring
// homing.
func capacityQuick1m() CapacityConfig {
	cfg := DefaultScale1mConfig()
	cfg.Topo = []CapacityTopo{{IPNodes: 500, Peers: 80}}
	cfg.RouteCacheK = 4
	cfg.RouteSources = 16
	cfg.RoutesPerSource = 2
	cfg.DiscoveryPeers = 320
	cfg.Shards = []int{1, 8}
	cfg.Functions = 24
	cfg.ProvidersPerFn = 2
	cfg.Lookups = 60
	return cfg
}

// structuralString renders everything a capacity result reports that is not
// wall-clock or heap, for byte-exact comparison across runs and worker
// counts.
func structuralString(r CapacityResult) string {
	s := ""
	for _, p := range r.Topo {
		s += fmt.Sprintf("topo %d/%d links=%d lat=%.9f hops=%.9f ok=%d\n",
			p.IPNodes, p.Peers, p.Links, p.RouteAvgMS, p.RouteAvgHops, p.RouteOK)
	}
	for _, p := range r.Discovery {
		s += fmt.Sprintf("disc %d/%d ok=%d hops=%.9f\n", p.Peers, p.Shards, p.LookupOK, p.AvgHops)
	}
	return s
}

const capacityGolden100k = `topo 400/60 links=191 lat=53.164720029 hops=2.531250000 ok=32
topo 800/120 links=399 lat=61.786726208 hops=2.906250000 ok=32
disc 240/1 ok=60 hops=1.983333333
disc 240/4 ok=60 hops=2.116666667
disc 240/16 ok=60 hops=1.883333333
`

const capacityGolden1m = `topo 500/80 links=248 lat=61.171995071 hops=2.406250000 ok=32
disc 320/1 ok=60 hops=1.983333333
disc 320/8 ok=60 hops=2.116666667
`

// checkStructuralColumns asserts that the structural columns of the config
// built by cfg equal want, survive a rerun and a 1-vs-8-worker change byte
// for byte, and that every topology point built links and routes. It returns
// the first run for further checks.
func checkStructuralColumns(t *testing.T, cfg func() CapacityConfig, want string) CapacityResult {
	t.Helper()
	a := Capacity(cfg())
	got := structuralString(a)
	if got != want {
		t.Errorf("structural columns differ from golden:\n%s\nwant\n%s", got, want)
	}
	if rerun := structuralString(Capacity(cfg())); rerun != got {
		t.Errorf("structural columns differ across reruns:\n%s\nvs\n%s", got, rerun)
	}
	par := cfg()
	par.Parallel = 8
	if p8 := structuralString(Capacity(par)); p8 != got {
		t.Errorf("structural columns differ between 1 and 8 workers:\n%s\nvs\n%s", got, p8)
	}
	for _, p := range a.Topo {
		if p.Links == 0 || p.RouteOK == 0 {
			t.Errorf("topo %d/%d: links=%d routesOK=%d", p.IPNodes, p.Peers, p.Links, p.RouteOK)
		}
	}
	return a
}

// checkLookupsResolve asserts one discovery point per shard count and that
// every shard count resolves all of the config's lookups: key-hash homing
// means the shard count must not change what discovery finds.
func checkLookupsResolve(t *testing.T, cfg CapacityConfig, res CapacityResult) {
	t.Helper()
	if len(res.Discovery) != len(cfg.Shards) {
		t.Fatalf("expected %d discovery points, got %d", len(cfg.Shards), len(res.Discovery))
	}
	for _, p := range res.Discovery {
		if p.LookupOK != cfg.Lookups {
			t.Errorf("shards=%d resolved %d of %d lookups", p.Shards, p.LookupOK, cfg.Lookups)
		}
	}
}

// TestScale100kStructuralColumnsDeterministic pins the seed-determinism of
// everything the 100k tier reports that is not wall-clock: link counts,
// simulated route latency and hops, and the discovery success/hop columns,
// against a golden, across a rerun and across 1 vs 8 workers.
func TestScale100kStructuralColumnsDeterministic(t *testing.T) {
	checkStructuralColumns(t, capacityQuick100k, capacityGolden100k)
}

// TestScale100kLookupsShardInvariant: every shard count in the 100k tier's
// {1, 4, 16} sweep resolves all of its lookups.
func TestScale100kLookupsShardInvariant(t *testing.T) {
	cfg := capacityQuick100k()
	checkLookupsResolve(t, cfg, Capacity(cfg))
}

// TestCapacityStructuralColumns runs the structural and lookup checks on the
// quick 1M tier, whose K=4 route cache evicts.
func TestCapacityStructuralColumns(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() CapacityConfig
		want string
	}{
		{"scale1m", capacityQuick1m, capacityGolden1m},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := checkStructuralColumns(t, tc.cfg, tc.want)
			checkLookupsResolve(t, tc.cfg(), res)
		})
	}
}

// TestHeapDeltaMBClampsWrap: a baseline above the current live heap (a
// sibling cell's garbage collected in between) must read as zero growth, not
// wrap the unsigned subtraction into ~1.7e13 MB.
func TestHeapDeltaMBClampsWrap(t *testing.T) {
	if got := heapDeltaMB(math.MaxUint64); got != 0 {
		t.Fatalf("heapDeltaMB(MaxUint64) = %v, want 0", got)
	}
}

// TestScale1mSliceBudget is the CI capacity gate: the slice cell (100k IP
// nodes / 10k peers topology, 10k-peer discovery plane) must finish under
// generous wall-clock ceilings and a live-heap budget, with every lookup
// resolving. A wall-clock blowout here means superlinear construction crept
// back in (the precise 50× bound is TestBuildSpeedup's job); a heap blowout
// means a dense structure returned — the per-peer latency matrix, eager
// routing tables, or an unbounded route cache.
func TestScale1mSliceBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity slice")
	}
	cfg := Scale1mSliceConfig()
	res := Capacity(cfg)

	tp := res.Topo[0]
	if tp.GenMS+tp.OverlayMS > 120_000 {
		t.Errorf("topology build took %.0f ms, ceiling 120000", tp.GenMS+tp.OverlayMS)
	}
	if tp.HeapMB > 64 {
		t.Errorf("topology cell live heap %.1f MB, budget 64", tp.HeapMB)
	}
	if tp.RouteOK == 0 {
		t.Error("route sweep resolved no routes")
	}

	dp := res.Discovery[0]
	if dp.BuildMS > 60_000 {
		t.Errorf("ring build took %.0f ms, ceiling 60000", dp.BuildMS)
	}
	if dp.HeapMB > 192 {
		t.Errorf("discovery cell live heap %.1f MB, budget 192", dp.HeapMB)
	}
	if dp.LookupOK != cfg.Lookups {
		t.Errorf("resolved %d of %d lookups", dp.LookupOK, cfg.Lookups)
	}
}

// TestScale1mSliceDeterministic reruns the slice and requires byte-identical
// structural columns — the rerun half of the CI gate.
func TestScale1mSliceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity slice")
	}
	a := Capacity(Scale1mSliceConfig())
	cfg := Scale1mSliceConfig()
	cfg.Parallel = 8
	b := Capacity(cfg)
	if structuralString(a) != structuralString(b) {
		t.Fatalf("slice not deterministic across reruns/worker counts:\n%s\nvs\n%s",
			structuralString(a), structuralString(b))
	}
}
