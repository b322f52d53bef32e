package topology

// Differential harness for the CSR rewrite: a frozen copy of the legacy
// slice-of-slices representation lives here as the reference implementation,
// and randomized graphs built edge-for-edge in both representations must
// agree exactly — degree histograms, PairDistances to the last bit, Route
// paths tie-broken identically. "Exactly" is the point: the CSR arrays pack
// half-edges in adjacency insertion order precisely so that relaxation order,
// float folds, and heap behavior are unchanged, and this harness is what
// certifies that claim instead of vibes.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// legacyGraph is the pre-CSR Graph: per-node []Edge adjacency plus a
// pair-keyed edge-set index. Kept verbatim (modulo lowercased names) as the
// differential reference.
type legacyGraph struct {
	n     int
	m     int
	adj   [][]Edge
	edges map[uint64]struct{}
}

func newLegacyGraph(n int) *legacyGraph {
	return &legacyGraph{n: n, adj: make([][]Edge, n), edges: make(map[uint64]struct{})}
}

func (g *legacyGraph) addEdge(u, v int, latency float64) {
	if u == v {
		return
	}
	key := pairKey(u, v)
	if _, dup := g.edges[key]; dup {
		return
	}
	g.edges[key] = struct{}{}
	g.adj[u] = append(g.adj[u], Edge{To: v, Latency: latency})
	g.adj[v] = append(g.adj[v], Edge{To: u, Latency: latency})
	g.m++
}

func (g *legacyGraph) degree(u int) int { return len(g.adj[u]) }

func (g *legacyGraph) dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	var h nodeHeap
	h.init(g.n)
	h.update(dist, int32(src))
	for len(h.nodes) > 0 {
		u := h.pop(dist)
		du := dist[u]
		for _, e := range g.adj[u] {
			if nd := du + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				h.update(dist, int32(e.To))
			}
		}
	}
	return dist
}

func (g *legacyGraph) pairDistances(nodes []int) [][]float64 {
	out := make([][]float64, len(nodes))
	for i, src := range nodes {
		dist := g.dijkstra(src)
		row := make([]float64, len(nodes))
		for j, dst := range nodes {
			row[j] = dist[dst]
		}
		out[i] = row
	}
	return out
}

func (g *legacyGraph) degreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.n; u++ {
		h[g.degree(u)]++
	}
	return h
}

// legacyRoute recomputes an overlay route with the pre-CSR algorithm: distPQ
// Dijkstra over the mutable o.adj link-index lists (which the frozen overlay
// retains), then the same backward prev-chain walk. Reading unexported fields
// is deliberate — the reference implementation must see exactly the links the
// CSR was packed from.
func legacyRoute(o *Overlay, a, b int) (Path, bool) {
	if a == b {
		return Path{Peers: []int{a}, Latency: 0}, true
	}
	n := o.N()
	dist := make([]float64, n)
	prevPeer := make([]int, n)
	prevLink := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevPeer[i] = -1
		prevLink[i] = -1
	}
	dist[a] = 0
	var pq distPQ
	pq.push(distItem{node: a, dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, idx := range o.adj[it.node] {
			l := o.links[idx]
			to := l.u
			if to == it.node {
				to = l.v
			}
			if nd := it.dist + l.latency; nd < dist[to] {
				dist[to] = nd
				prevPeer[to] = it.node
				prevLink[to] = idx
				pq.push(distItem{node: to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return Path{}, false
	}
	var peers, links []int
	for at := b; at != a; at = prevPeer[at] {
		peers = append(peers, at)
		links = append(links, prevLink[at])
	}
	peers = append(peers, a)
	for i, j := 0, len(peers)-1; i < j; i, j = i+1, j-1 {
		peers[i], peers[j] = peers[j], peers[i]
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return Path{Peers: peers, Links: links, Latency: dist[b]}, true
}

// buildBoth replays one deterministic edge script into both representations.
// Duplicate and self-loop attempts are part of the script on purpose: the
// dedup behavior must match too.
func buildBoth(rng *rand.Rand, n, attempts int) (*Graph, *legacyGraph) {
	g := NewGraph(n)
	lg := newLegacyGraph(n)
	// Chain backbone so most of the graph is connected (mirrors GenerateRandom).
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		l := 1 + rng.Float64()*20
		g.AddEdge(perm[i-1], perm[i], l)
		lg.addEdge(perm[i-1], perm[i], l)
	}
	for i := 0; i < attempts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		l := 1 + rng.Float64()*20
		g.AddEdge(u, v, l)
		lg.addEdge(u, v, l)
	}
	g.Freeze()
	return g, lg
}

func diffCheck(t *testing.T, g *Graph, lg *legacyGraph, rng *rand.Rand) {
	t.Helper()
	if g.M() != lg.m {
		t.Fatalf("edge counts differ: CSR %d, legacy %d", g.M(), lg.m)
	}

	// Degree histograms: the legacy map and the CSR sorted slice must hold
	// the same distribution.
	lh := lg.degreeHistogram()
	ch := g.DegreeHistogram()
	if len(ch) != len(lh) {
		t.Fatalf("histogram sizes differ: CSR %d rows, legacy %d", len(ch), len(lh))
	}
	for _, row := range ch {
		if lh[row.Degree] != row.Count {
			t.Fatalf("degree %d: CSR count %d, legacy %d", row.Degree, row.Count, lh[row.Degree])
		}
	}

	// PairDistances: bit-exact, +Inf included.
	k := g.N() / 4
	if k < 2 {
		k = 2
	}
	if k > 40 {
		k = 40
	}
	nodes := rng.Perm(g.N())[:k]
	got := g.PairDistances(nodes)
	want := lg.pairDistances(nodes)
	for i := range nodes {
		for j := range nodes {
			if got[i][j] != want[i][j] && !(math.IsInf(got[i][j], 1) && math.IsInf(want[i][j], 1)) {
				t.Fatalf("PairDistances[%d][%d]: CSR %v, legacy %v", i, j, got[i][j], want[i][j])
			}
		}
	}

	// Neighbors must come back in identical order: insertion order is the
	// contract the whole byte-identical claim rests on.
	for u := 0; u < g.N(); u++ {
		ge, le := g.Neighbors(u), lg.adj[u]
		if len(ge) != len(le) {
			t.Fatalf("node %d: CSR degree %d, legacy %d", u, len(ge), len(le))
		}
		for i := range ge {
			if ge[i] != le[i] {
				t.Fatalf("node %d half-edge %d: CSR %+v, legacy %+v", u, i, ge[i], le[i])
			}
		}
	}
}

func TestDiffGraphAgainstLegacy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g, lg := buildBoth(rng, n, n*3)
		diffCheck(t, g, lg, rng)
	}
}

// TestDiffGeneratedGraphs replays the generators' output into the legacy
// representation edge-for-edge (via Neighbors, which preserves insertion
// order within each node but not globally) and checks the order-insensitive
// agreements; the order-sensitive ones are covered by buildBoth scripts.
func TestDiffGeneratedGraphs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(150+int(seed)*50, 2, 2, 30, rng)
		lg := newLegacyGraph(g.N())
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				lg.addEdge(u, e.To, e.Latency)
			}
		}
		if lg.m != g.M() {
			t.Fatalf("seed %d: replay lost edges: %d vs %d", seed, lg.m, g.M())
		}
		lh := lg.degreeHistogram()
		for _, row := range g.DegreeHistogram() {
			if lh[row.Degree] != row.Count {
				t.Fatalf("seed %d degree %d: CSR %d, legacy %d", seed, row.Degree, row.Count, lh[row.Degree])
			}
		}
	}
}

// TestDiffRoutePaths: the frozen link-CSR router must return the identical
// Path — peers, link indices, latency — as the legacy slice-walking router,
// for every source/destination pair, on every overlay kind.
func TestDiffRoutePaths(t *testing.T) {
	for _, kind := range []OverlayKind{Mesh, PowerLawOverlay, RandomOverlay} {
		rng := rand.New(rand.NewSource(42))
		g := GeneratePowerLaw(400, 2, 2, 30, rng)
		o := BuildOverlay(g, OverlayConfig{NumPeers: 60, Kind: kind, Degree: 3}, rng)
		for a := 0; a < o.N(); a++ {
			for b := 0; b < o.N(); b++ {
				got, gok := o.Route(a, b)
				want, wok := legacyRoute(o, a, b)
				if gok != wok {
					t.Fatalf("%v route %d->%d: CSR ok=%v, legacy ok=%v", kind, a, b, gok, wok)
				}
				if !gok {
					continue
				}
				if got.Latency != want.Latency || len(got.Peers) != len(want.Peers) {
					t.Fatalf("%v route %d->%d: CSR %+v, legacy %+v", kind, a, b, got, want)
				}
				for i := range got.Peers {
					if got.Peers[i] != want.Peers[i] {
						t.Fatalf("%v route %d->%d peer %d: CSR %v, legacy %v", kind, a, b, i, got.Peers, want.Peers)
					}
				}
				for i := range got.Links {
					if got.Links[i] != want.Links[i] {
						t.Fatalf("%v route %d->%d link %d: CSR %v, legacy %v", kind, a, b, i, got.Links, want.Links)
					}
				}
			}
		}
	}
}

// TestDiffCompactMesh: with identical seeds the compact (matrix-free) mesh
// builder must produce the same peers, the same links in the same order with
// the same capacities, and the same routes as the full-matrix builder —
// the truncated per-peer Dijkstra consumes no RNG and settles the same
// k-nearest sets the full sort finds.
func TestDiffCompactMesh(t *testing.T) {
	const seed = 99
	rngG := rand.New(rand.NewSource(seed))
	g := GeneratePowerLaw(2000, 2, 2, 30, rngG)

	full := BuildOverlay(g, OverlayConfig{NumPeers: 200, Kind: Mesh, Degree: 4}, rand.New(rand.NewSource(7)))
	comp := BuildOverlay(g, OverlayConfig{NumPeers: 200, Kind: Mesh, Degree: 4, Compact: true}, rand.New(rand.NewSource(7)))

	if comp.Compact() == false || full.Compact() == true {
		t.Fatal("Compact() flags wrong")
	}
	for p := 0; p < full.N(); p++ {
		if full.PeerIP(p) != comp.PeerIP(p) {
			t.Fatalf("peer %d hosts differ: %d vs %d", p, full.PeerIP(p), comp.PeerIP(p))
		}
	}
	if len(full.links) != len(comp.links) {
		t.Fatalf("link counts differ: full %d, compact %d", len(full.links), len(comp.links))
	}
	for i := range full.links {
		if full.links[i] != comp.links[i] {
			t.Fatalf("link %d differs: full %+v, compact %+v", i, full.links[i], comp.links[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(full.N()), rng.Intn(full.N())
		fp, fok := full.Route(a, b)
		cp, cok := comp.Route(a, b)
		if fok != cok || (fok && fp.Latency != cp.Latency) {
			t.Fatalf("route %d->%d: full (%v,%v), compact (%v,%v)", a, b, fp, fok, cp, cok)
		}
		// Linked pairs: the direct link carries the IP-shortest latency, and
		// by the triangle inequality no overlay detour beats it — so the
		// compact Latency fallback must match the full-matrix answer, modulo
		// a ULP: a detour folds different addends, and float addition is not
		// associative, so Route can come in one bit under the direct link.
		if fl, cl := full.Latency(a, b), comp.Latency(a, b); full.hasLink(a, b) &&
			math.Abs(fl-cl) > 1e-12*fl {
			t.Fatalf("linked latency %d-%d: full %v, compact %v", a, b, fl, cl)
		}
	}
}

// legacyBuildOverlay is BuildOverlay before the parallel pass and nearestK:
// a sequential per-source Dijkstra fills the latency matrix and every mesh
// peer sorts all n-1 others by latency. It is the reference the current
// wiring must reproduce link for link, capacity draw for capacity draw.
func legacyBuildOverlay(g *Graph, cfg OverlayConfig, rng *rand.Rand) *Overlay {
	if cfg.Degree < 1 {
		cfg.Degree = 4
	}
	if cfg.CapMax <= 0 {
		cfg.CapMin, cfg.CapMax = 1000, 10000
	}
	n := cfg.NumPeers
	o := &Overlay{
		peerIP:  rng.Perm(g.N())[:n],
		adj:     make([][]int, n),
		linkSet: make(map[uint64]struct{}),
		capMin:  cfg.CapMin,
		capMax:  cfg.CapMax,
	}
	o.lat = make([][]float64, n)
	for i, src := range o.peerIP {
		dist := g.Dijkstra(src)
		o.lat[i] = make([]float64, n)
		for j, dst := range o.peerIP {
			o.lat[i][j] = dist[dst]
		}
	}
	addLink := func(u, v int) {
		if u == v || o.hasLink(u, v) {
			return
		}
		o.linkSet[pairKey(u, v)] = struct{}{}
		idx := len(o.links)
		c := cfg.CapMin + rng.Float64()*(cfg.CapMax-cfg.CapMin)
		o.links = append(o.links, overlayLink{u: u, v: v, latency: o.lat[u][v], capacity: c, avail: c})
		o.adj[u] = append(o.adj[u], idx)
		o.adj[v] = append(o.adj[v], idx)
	}
	switch cfg.Kind {
	case Mesh:
		for u := 0; u < n; u++ {
			order := make([]int, 0, n-1)
			for v := 0; v < n; v++ {
				if v != u {
					order = append(order, v)
				}
			}
			sort.Slice(order, func(i, j int) bool { return o.lat[u][order[i]] < o.lat[u][order[j]] })
			for i := 0; i < cfg.Degree && i < len(order); i++ {
				addLink(u, order[i])
			}
		}
	case PowerLawOverlay:
		m := cfg.Degree
		if m >= n {
			m = n - 1
		}
		for u := 0; u <= m && u < n; u++ {
			for v := u + 1; v <= m && v < n; v++ {
				addLink(u, v)
			}
		}
		var targets []int
		for u := 0; u <= m && u < n; u++ {
			for range o.adj[u] {
				targets = append(targets, u)
			}
		}
		for u := m + 1; u < n; u++ {
			for _, v := range pickPreferential(targets, m, u, rng, nil) {
				addLink(u, v)
				targets = append(targets, u, v)
			}
		}
	case RandomOverlay:
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			addLink(perm[i-1], perm[i])
		}
		extra := n*cfg.Degree/2 - (n - 1)
		for i := 0; i < extra; i++ {
			addLink(rng.Intn(n), rng.Intn(n))
		}
	}
	return o
}

// legacyAddPeer is AddPeer's wiring before nearestK: a full sort of the
// existing peers by latency from the newcomer.
func legacyAddPeer(o *Overlay, g *Graph, ip, degree int, rng *rand.Rand) {
	dist := g.Dijkstra(ip)
	n := len(o.peerIP)
	row := make([]float64, n+1)
	for q, ipq := range o.peerIP {
		row[q] = dist[ipq]
		o.lat[q] = append(o.lat[q], dist[ipq])
	}
	o.peerIP = append(o.peerIP, ip)
	o.lat = append(o.lat, row)
	o.adj = append(o.adj, nil)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return row[order[a]] < row[order[b]] })
	for i := 0; i < degree && i < len(order); i++ {
		v := order[i]
		if o.hasLink(n, v) {
			continue
		}
		o.linkSet[pairKey(n, v)] = struct{}{}
		idx := len(o.links)
		c := o.capMin + rng.Float64()*(o.capMax-o.capMin)
		o.links = append(o.links, overlayLink{u: n, v: v, latency: row[v], capacity: c, avail: c})
		o.adj[n] = append(o.adj[n], idx)
		o.adj[v] = append(o.adj[v], idx)
	}
}

// sameWiring compares everything the builders decide: hosts, the latency
// matrix bit for bit, links in order with their capacities, and per-peer
// link lists.
func sameWiring(t *testing.T, label string, got, want *Overlay) {
	t.Helper()
	if !reflect.DeepEqual(got.peerIP, want.peerIP) {
		t.Fatalf("%s: peer hosts differ", label)
	}
	if len(got.lat) != len(want.lat) {
		t.Fatalf("%s: latency matrix has %d rows, want %d", label, len(got.lat), len(want.lat))
	}
	for i := range want.lat {
		if len(got.lat[i]) != len(want.lat[i]) {
			t.Fatalf("%s: latency row %d has %d entries, want %d", label, i, len(got.lat[i]), len(want.lat[i]))
		}
		for j := range want.lat[i] {
			if math.Float64bits(got.lat[i][j]) != math.Float64bits(want.lat[i][j]) {
				t.Fatalf("%s: lat[%d][%d]=%v, want %v", label, i, j, got.lat[i][j], want.lat[i][j])
			}
		}
	}
	if !reflect.DeepEqual(got.links, want.links) {
		t.Fatalf("%s: links differ:\n got  %v\n want %v", label, got.links, want.links)
	}
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatalf("%s: per-peer link lists differ", label)
	}
}

// TestDiffOverlayWiring: for every overlay kind, BuildOverlay (parallel
// PairDistances, nearestK mesh wiring) must produce exactly the overlay the
// sequential sort-based builder produced, and leave the RNG in the same
// state; AddPeer likewise. Equal-latency IP links make distance ties common,
// which drives nearestK's fall-back to the full sort.
func TestDiffOverlayWiring(t *testing.T) {
	for _, tc := range []struct {
		name           string
		minLat, maxLat float64
		peers, degree  int
	}{
		{"distinct", 2, 30, 120, 4},
		{"ties", 5, 5, 120, 4},
		{"dense", 2, 30, 12, 15},
		{"dense-ties", 1, 1, 12, 11},
	} {
		for _, kind := range []OverlayKind{Mesh, PowerLawOverlay, RandomOverlay} {
			label := tc.name + "/" + kind.String()
			g := GeneratePowerLaw(500, 2, tc.minLat, tc.maxLat, rand.New(rand.NewSource(5)))
			cfg := OverlayConfig{NumPeers: tc.peers, Kind: kind, Degree: tc.degree}
			rngGot, rngWant := rand.New(rand.NewSource(21)), rand.New(rand.NewSource(21))
			got := BuildOverlay(g, cfg, rngGot)
			want := legacyBuildOverlay(g, cfg, rngWant)
			sameWiring(t, label, got, want)

			// Two arrivals on hosts no peer uses yet.
			used := make(map[int]bool)
			for _, ip := range want.peerIP {
				used[ip] = true
			}
			for ip, added := 0, 0; added < 2; ip++ {
				if used[ip] {
					continue
				}
				got.AddPeer(g, ip, tc.degree, rngGot)
				legacyAddPeer(want, g, ip, tc.degree, rngWant)
				added++
			}
			sameWiring(t, label+"+AddPeer", got, want)
			if rngGot.Int63() != rngWant.Int63() {
				t.Fatalf("%s: RNG streams diverged", label)
			}
		}
	}
}

// TestNearestK checks nearestK against the full-sort oracle on random rows:
// continuous values, values from a tiny set (ties everywhere), and rows
// with a tie forced exactly at the k-th/(k+1)-th boundary, for every k
// from 1 past the row length and with self at either end or inside.
func TestNearestK(t *testing.T) {
	oracle := func(row []float64, self, k int) []int {
		order := make([]int, 0, len(row))
		for v := range row {
			if v != self {
				order = append(order, v)
			}
		}
		sort.Slice(order, func(i, j int) bool { return row[order[i]] < row[order[j]] })
		return order[:min(k, len(order))]
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		row := make([]float64, n)
		for i := range row {
			switch trial % 3 {
			case 0:
				row[i] = rng.Float64() * 100
			case 1:
				row[i] = float64(rng.Intn(4))
			default:
				row[i] = rng.Float64() * 100
				if rng.Intn(8) == 0 {
					row[i] = math.Inf(1)
				}
			}
		}
		self := []int{0, n - 1, rng.Intn(n)}[trial%3]
		for k := 1; k <= n+1; k++ {
			r := row
			if trial%3 == 2 && k < n-1 {
				// Copy the k-th smallest other entry onto another peer past
				// it, tying the last kept and first dropped positions.
				r = append([]float64(nil), row...)
				o := oracle(r, self, n)
				r[o[k]] = r[o[k-1]]
			}
			got, want := nearestK(r, self, k), oracle(r, self, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d self=%d k=%d: nearestK %v, sort %v (row %v)", trial, n, self, k, got, want, r)
			}
		}
	}
}

// FuzzDiffGraph drives the same differential through the fuzzer: arbitrary
// seeds generate edge scripts replayed into both representations.
func FuzzDiffGraph(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(424242))
	f.Add(int64(-99))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		g, lg := buildBoth(rng, n, n*2)
		diffCheck(t, g, lg, rng)
	})
}
