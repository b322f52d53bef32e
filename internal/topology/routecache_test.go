package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cacheOverlay builds the same mesh overlay deterministically with a given
// route-cache bound, so tests can compare behavior across bounds.
func cacheOverlay(t testing.TB, peers, cacheSize int) *Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(600, 2, 2, 30, rng)
	return BuildOverlay(g, OverlayConfig{
		NumPeers:       peers,
		Kind:           Mesh,
		Degree:         4,
		CapMin:         1000,
		CapMax:         5000,
		RouteCacheSize: cacheSize,
	}, rng)
}

// dijkstra is the uncached oracle: a fresh full table from src, bypassing
// the cache and its recycled slots.
func (o *Overlay) dijkstra(src int) routeTable {
	rt := newRouteTable(o.N())
	o.dijkstraInto(src, rt)
	return rt
}

// pathString renders a path for byte-exact comparison.
func pathString(p Path, ok bool) string {
	return fmt.Sprintf("ok=%v peers=%v links=%v lat=%.9f", ok, p.Peers, p.Links, p.Latency)
}

// TestRouteCacheEvictionDeterministic drives the identical route sequence
// through a K=2 cache (evicting on nearly every source change) and an
// unbounded one, and requires byte-identical paths: the bound may change
// memory and recomputation, never results.
func TestRouteCacheEvictionDeterministic(t *testing.T) {
	tight := cacheOverlay(t, 80, 2)
	unbounded := cacheOverlay(t, 80, -1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(80), rng.Intn(80)
		pt, okt := tight.Route(a, b)
		pu, oku := unbounded.Route(a, b)
		if got, want := pathString(pt, okt), pathString(pu, oku); got != want {
			t.Fatalf("route %d→%d diverges at K=2:\n  K=2: %s\n  K=∞: %s", a, b, got, want)
		}
	}
	if len(tight.routeCache) > 2 {
		t.Fatalf("K=2 cache holds %d tables", len(tight.routeCache))
	}
}

// TestRouteCacheMissCorrect compares every route served after the cache is
// full — truncated fast path and evict-and-recompute alike — against an
// uncached full Dijkstra oracle.
func TestRouteCacheMissCorrect(t *testing.T) {
	o := cacheOverlay(t, 80, 3)
	// Fill the cache from three sources, then route from every other source:
	// each of these is a cache miss on first touch.
	for src := 0; src < 3; src++ {
		o.Route(src, 40)
	}
	for a := 3; a < 80; a++ {
		for _, b := range []int{0, a % 7, 79 - a%13, 40} {
			if a == b {
				continue
			}
			got, gok := o.Route(a, b)
			oracle := o.dijkstra(a) // fresh full table, bypassing the cache
			want, wok := o.pathFrom(oracle, a, b)
			if pathString(got, gok) != pathString(want, wok) {
				t.Fatalf("route %d→%d: cache-miss path %s != oracle %s",
					a, b, pathString(got, gok), pathString(want, wok))
			}
		}
	}
}

// TestRouteCacheBounded checks the LRU never exceeds its bound no matter how
// many distinct sources probe, and that the default bound applies when the
// config leaves the size zero.
func TestRouteCacheBounded(t *testing.T) {
	o := cacheOverlay(t, 80, 5)
	for a := 0; a < 80; a++ {
		for b := 0; b < 80; b += 11 {
			o.Route(a, b)
		}
	}
	if len(o.routeCache) > 5 {
		t.Fatalf("cache holds %d tables, bound is 5", len(o.routeCache))
	}
	def := cacheOverlay(t, 10, 0)
	if def.routeCap != DefaultRouteCacheSize {
		t.Fatalf("zero RouteCacheSize → routeCap %d, want %d", def.routeCap, DefaultRouteCacheSize)
	}
}

// TestRouteCacheInvalidatedByAddPeer verifies AddPeer drops every cached
// table: post-arrival routes must see the newcomer and match a fresh oracle.
func TestRouteCacheInvalidatedByAddPeer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(600, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{
		NumPeers: 60, Kind: Mesh, Degree: 4,
		CapMin: 1000, CapMax: 5000, RouteCacheSize: 4,
	}, rng)
	// Warm the cache.
	for a := 0; a < 8; a++ {
		o.Route(a, 30)
	}
	// Pick an unused IP node for the newcomer.
	used := make(map[int]bool)
	for p := 0; p < o.N(); p++ {
		used[o.PeerIP(p)] = true
	}
	ip := -1
	for v := 0; v < g.N(); v++ {
		if !used[v] {
			ip = v
			break
		}
	}
	np := o.AddPeer(g, ip, 4, rng)
	if len(o.routeCache) != 0 {
		t.Fatalf("AddPeer left %d cached tables", len(o.routeCache))
	}
	// Every cached-before source must now route to the new peer, and all
	// routes must match a fresh oracle over the grown overlay.
	for a := 0; a < 8; a++ {
		got, gok := o.Route(a, np)
		oracle := o.dijkstra(a)
		want, wok := o.pathFrom(oracle, a, np)
		if !gok {
			t.Fatalf("no route %d→new peer %d after AddPeer", a, np)
		}
		if pathString(got, gok) != pathString(want, wok) {
			t.Fatalf("stale route %d→%d after AddPeer: %s != oracle %s",
				a, np, pathString(got, gok), pathString(want, wok))
		}
	}
}

// TestRouteNearUnreachableVerdict exercises the truncated search's
// drained-component verdict: with the cache full, a route between different
// components must return ok=false without a full-table fallback changing the
// answer.
func TestRouteCacheDisconnectedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GeneratePowerLaw(300, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{
		NumPeers: 40, Kind: RandomOverlay, Degree: 2,
		CapMin: 1000, CapMax: 5000, RouteCacheSize: 1,
	}, rng)
	// Sever peer 0 from everything by clearing its adjacency, then refreeze.
	for _, idx := range o.adj[0] {
		l := &o.links[idx]
		other := l.u
		if other == 0 {
			other = l.v
		}
		keep := o.adj[other][:0]
		for _, li := range o.adj[other] {
			if li != idx {
				keep = append(keep, li)
			}
		}
		o.adj[other] = keep
	}
	o.adj[0] = nil
	o.cacheReset()
	o.loff = nil
	o.Route(1, 2) // fill the single-slot cache from another source
	for a := 3; a < 10; a++ {
		if _, ok := o.Route(a, 0); ok {
			t.Fatalf("route %d→0 should not exist after severing peer 0", a)
		}
		if _, ok := o.Route(0, a); ok {
			t.Fatalf("route 0→%d should not exist after severing peer 0", a)
		}
	}
}

// TestRouteQoSMatchesRoute requires RouteQoS to return, bit for bit, the
// latency and bottleneck of Route followed by AvailBandwidth for every pair —
// through cache hits, the truncated search and evict-and-recompute at K=2,
// and unbounded — both on fresh links and after reservations have made the
// bottlenecks differ. The degree-1 mesh splits into components, so
// unreachable pairs are covered too.
func TestRouteQoSMatchesRoute(t *testing.T) {
	for _, degree := range []int{4, 1} {
		for _, bound := range []int{2, -1} {
			rng := rand.New(rand.NewSource(11))
			g := GeneratePowerLaw(600, 2, 2, 30, rng)
			o := BuildOverlay(g, OverlayConfig{
				NumPeers: 80, Kind: Mesh, Degree: degree,
				CapMin: 1000, CapMax: 5000, RouteCacheSize: bound,
			}, rng)
			check := func(phase string) (unreachable int) {
				for a := 0; a < o.N(); a++ {
					for b := 0; b < o.N(); b++ {
						lat, bw, ok := o.RouteQoS(a, b)
						p, pok := o.Route(a, b)
						if ok != pok {
							t.Fatalf("degree %d K=%d %s %d→%d: RouteQoS ok=%v, Route ok=%v", degree, bound, phase, a, b, ok, pok)
						}
						if !ok {
							unreachable++
							continue
						}
						if math.Float64bits(lat) != math.Float64bits(p.Latency) ||
							math.Float64bits(bw) != math.Float64bits(o.AvailBandwidth(p)) {
							t.Fatalf("degree %d K=%d %s %d→%d: RouteQoS (%v, %v), Route (%v, %v)",
								degree, bound, phase, a, b, lat, bw, p.Latency, o.AvailBandwidth(p))
						}
					}
				}
				return unreachable
			}
			unreachable := check("fresh")
			if degree == 1 && unreachable == 0 {
				t.Fatalf("degree-1 mesh K=%d: expected unreachable pairs", bound)
			}
			for i := 0; i < 200; i++ {
				if p, ok := o.Route(rng.Intn(80), rng.Intn(80)); ok {
					o.AllocBandwidth(p, 50+rng.Float64()*400)
				}
			}
			check("allocated")
		}
	}
}

// TestRouteQoSCacheHitAllocs: answering from a cached table must not
// allocate — the oracle asks this on every probe hop.
func TestRouteQoSCacheHitAllocs(t *testing.T) {
	o := cacheOverlay(t, 80, -1)
	o.RouteQoS(3, 50)
	if allocs := testing.AllocsPerRun(100, func() { o.RouteQoS(3, 50) }); allocs != 0 {
		t.Fatalf("cache-hit RouteQoS allocates %v times per call", allocs)
	}
}

// TestRouteCacheRecyclesVictim: a miss on a full cache that falls through to
// a full Dijkstra must refill the evicted slot's arrays in place.
func TestRouteCacheRecyclesVictim(t *testing.T) {
	o := cacheOverlay(t, 80, 2)
	o.Route(0, 1)
	o.Route(1, 0)
	victim := o.lruTail
	dist := &victim.rt.dist[0]
	// The peer farthest from 5 settles last, beyond routeNear's 32-peer
	// ball, so the route forces a full table.
	oracle := o.dijkstra(5)
	far := 0
	for p, d := range oracle.dist {
		if d > oracle.dist[far] {
			far = p
		}
	}
	o.Route(5, far)
	s, ok := o.routeCache[5]
	if !ok || s != victim || &s.rt.dist[0] != dist {
		t.Fatalf("full-table miss did not reuse the evicted slot (cached=%v)", ok)
	}
	if _, ok := o.routeCache[0]; ok {
		t.Fatal("least recently used source 0 still cached")
	}
}
