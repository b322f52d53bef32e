package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// OverlayKind selects how overlay links between peers are constructed.
type OverlayKind int

const (
	// Mesh connects each peer to its k latency-nearest peers
	// (a topologically-aware overlay mesh).
	Mesh OverlayKind = iota
	// PowerLawOverlay grows a preferential-attachment overlay over the peers.
	PowerLawOverlay
	// RandomOverlay connects peers with a random connected graph.
	RandomOverlay
)

// String names the overlay kind.
func (k OverlayKind) String() string {
	switch k {
	case Mesh:
		return "mesh"
	case PowerLawOverlay:
		return "power-law"
	case RandomOverlay:
		return "random"
	default:
		return fmt.Sprintf("overlaykind(%d)", int(k))
	}
}

type overlayLink struct {
	u, v     int
	latency  float64 // ms, from IP-layer shortest path between u and v
	capacity float64 // kbps
	avail    float64 // kbps still unallocated
}

// Path is an overlay-layer route between two peers: the peer sequence, the
// indices of the traversed overlay links, and the total latency.
type Path struct {
	Peers   []int
	Links   []int
	Latency float64
}

// Overlay is the P2P service overlay: a set of peers (each mapped to an IP
// node), overlay links with bandwidth capacities, and latency/routing
// oracles. Overlay links model the application-level connections data
// streams travel on; control messages between any two peers use the direct
// IP-layer latency.
//
// Like Graph, the link set has a mutable build phase and a frozen CSR form:
// routing consumes packed per-peer (neighbor, link, latency) arrays built
// lazily on the first Route and invalidated by AddPeer.
type Overlay struct {
	peerIP  []int
	lat     [][]float64 // pairwise peer latency over IP shortest paths; nil in compact mode
	links   []overlayLink
	adj     [][]int             // per-peer incident link indices
	linkSet map[uint64]struct{} // unordered peer pairs with a link, for O(1) hasLink

	capMin, capMax float64 // link capacity range, for peers added later

	// Bounded per-source route cache: an LRU of at most routeCap full
	// Dijkstra tables (routeCap < 0 = unbounded), so steady-state memory is
	// O(routeCap·peers) no matter how many sources probe. Once the cache is
	// full, near destinations are answered by a truncated search over the
	// trunc scratch state instead of evicting a table — see Route.
	routeCap   int
	routeCache map[int]*routeSlot
	lruHead    *routeSlot // most recently used
	lruTail    *routeSlot // next eviction victim
	trunc      *truncRouteState

	// Frozen link CSR: peer p's incident links occupy [loff[p], loff[p+1])
	// in lto (the far endpoint), llink (the link index), and llat (the link
	// latency), packed in adj insertion order so routing relaxes in exactly
	// the order the slice-of-slices representation did.
	loff  []int32
	lto   []int32
	llink []int32
	llat  []float64
}

// routeTable is one source's shortest-path tree: dist[p] is the latency from
// the source to peer p, prevPeer[p] and prevLink[p] the last hop into p (-1
// at the source and at unreached peers).
type routeTable struct {
	dist     []float64
	prevPeer []int32
	prevLink []int32
}

func newRouteTable(n int) routeTable {
	return routeTable{dist: make([]float64, n), prevPeer: make([]int32, n), prevLink: make([]int32, n)}
}

// routeSlot is one LRU entry: a full per-source routing table threaded on the
// recency list.
type routeSlot struct {
	src        int
	rt         routeTable
	prev, next *routeSlot // prev = more recent
}

// truncRouteState is the reusable scratch for the truncated-Dijkstra fast
// path: epoch-stamped arrays make per-call initialization O(touched) instead
// of O(peers), and the priority queue's backing array is recycled. Only the
// entries stamped with the current epoch are meaningful.
type truncRouteState struct {
	routeTable
	stamp []uint32
	epoch uint32
	pq    distPQ
}

// DefaultRouteCacheSize is the route-cache bound applied when
// OverlayConfig.RouteCacheSize is zero. Bounding the cache never changes
// behavior (routes are cache-independent by construction), only memory and
// recomputation. Overlays of up to 512 peers never evict; larger ones — the
// paper-scale 1,000-peer world behind -paper and the compose1k benchmark
// workload — fill the cache and then answer near destinations with the
// truncated search and far ones by recycling the least recently used table.
const DefaultRouteCacheSize = 512

// OverlayConfig controls BuildOverlay.
type OverlayConfig struct {
	NumPeers int
	Kind     OverlayKind
	Degree   int     // target links per peer (k for Mesh, m for power-law, avg for random)
	CapMin   float64 // overlay link capacity range, kbps
	CapMax   float64
	// Compact skips the O(peers²) pairwise latency matrix: mesh links are
	// found with truncated per-peer Dijkstra searches (stop once the k
	// nearest peers have settled), and Latency falls back to overlay-path
	// latency for unlinked pairs. This is the only mode that fits a
	// 10,000-peer overlay in a laptop-class memory budget; it supports
	// Kind == Mesh only and does not support AddPeer.
	Compact bool
	// RouteCacheSize bounds how many per-source routing tables Route may
	// retain (LRU eviction beyond it). Zero applies DefaultRouteCacheSize;
	// negative disables the bound. Routes themselves are independent of the
	// cache state, so any bound produces byte-identical results — only
	// memory and recomputation change.
	RouteCacheSize int
}

// BuildOverlay selects cfg.NumPeers distinct IP nodes from g as peers,
// derives pairwise peer latencies from IP shortest paths, and constructs
// overlay links per cfg.Kind.
func BuildOverlay(g *Graph, cfg OverlayConfig, rng *rand.Rand) *Overlay {
	if cfg.NumPeers > g.N() {
		panic(fmt.Sprintf("topology: %d peers exceed %d IP nodes", cfg.NumPeers, g.N()))
	}
	if cfg.Degree < 1 {
		cfg.Degree = 4
	}
	if cfg.CapMax <= 0 {
		cfg.CapMin, cfg.CapMax = 1000, 10000
	}
	routeCap := cfg.RouteCacheSize
	if routeCap == 0 {
		routeCap = DefaultRouteCacheSize
	}
	n := cfg.NumPeers
	o := &Overlay{
		peerIP:     rng.Perm(g.N())[:n],
		adj:        make([][]int, n),
		linkSet:    make(map[uint64]struct{}),
		capMin:     cfg.CapMin,
		capMax:     cfg.CapMax,
		routeCap:   routeCap,
		routeCache: make(map[int]*routeSlot),
	}
	if cfg.Compact {
		if cfg.Kind != Mesh {
			panic("topology: compact overlays support the mesh kind only")
		}
		o.buildCompactMesh(g, cfg, rng)
		return o
	}
	o.lat = g.PairDistances(o.peerIP)

	cap := func() float64 { return cfg.CapMin + rng.Float64()*(cfg.CapMax-cfg.CapMin) }
	addLink := func(u, v int) {
		if u == v || o.hasLink(u, v) {
			return
		}
		o.linkSet[pairKey(u, v)] = struct{}{}
		idx := len(o.links)
		c := cap()
		o.links = append(o.links, overlayLink{u: u, v: v, latency: o.lat[u][v], capacity: c, avail: c})
		o.adj[u] = append(o.adj[u], idx)
		o.adj[v] = append(o.adj[v], idx)
	}

	switch cfg.Kind {
	case Mesh:
		for u := 0; u < n; u++ {
			for _, v := range nearestK(o.lat[u], u, cfg.Degree) {
				addLink(u, v)
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

// nearestK returns the indices of the k smallest entries of row, self
// excluded, in ascending order: exactly the first k entries that a
// sort.Slice by row value of the indices other than self (in index order)
// leaves. One pass keeps the k+1 smallest by insertion. When those k+1
// values are pairwise distinct, the kept k are strictly below every other
// entry and strictly ordered, so any correct sort puts them first in this
// order. A tie among them would let sort.Slice's unstable order decide which
// peers are kept, and in what order; then the full sort runs instead, so the
// result is the one the sort gives. Rows hold distances, never NaN.
func nearestK(row []float64, self, k int) []int {
	top := make([]int, 0, min(k+1, len(row)))
	for v, d := range row {
		if v == self || (len(top) == k+1 && d >= row[top[k]]) {
			continue
		}
		if len(top) < k+1 {
			top = append(top, v)
		}
		i := len(top) - 1
		for ; i > 0 && d < row[top[i-1]]; i-- {
			top[i] = top[i-1]
		}
		top[i] = v
	}
	for i := 1; i < len(top); i++ {
		if row[top[i]] == row[top[i-1]] {
			order := make([]int, 0, len(row))
			for v := range row {
				if v != self {
					order = append(order, v)
				}
			}
			sort.Slice(order, func(i, j int) bool { return row[order[i]] < row[order[j]] })
			return order[:min(k, len(order))]
		}
	}
	return top[:min(k, len(top))]
}

// buildCompactMesh wires each peer to its Degree nearest peers without ever
// materializing the pairwise latency matrix. One truncated Dijkstra per peer
// settles just the ball around its host until Degree foreign peers have been
// found; link latency is the settled IP-layer distance. Memory is O(peers +
// links + IP nodes) instead of O(peers²).
func (o *Overlay) buildCompactMesh(g *Graph, cfg OverlayConfig, rng *rand.Rand) {
	n := len(o.peerIP)
	peerOf := make([]int32, g.N())
	for i := range peerOf {
		peerOf[i] = -1
	}
	for p, ip := range o.peerIP {
		peerOf[ip] = int32(p)
	}
	isPeer := func(v int32) bool { return peerOf[v] >= 0 }
	var ts truncState
	for u := 0; u < n; u++ {
		for _, sp := range g.nearestPeers(o.peerIP[u], isPeer, cfg.Degree, &ts) {
			v := int(peerOf[sp.node])
			if u == v || o.hasLink(u, v) {
				continue
			}
			o.linkSet[pairKey(u, v)] = struct{}{}
			idx := len(o.links)
			c := cfg.CapMin + rng.Float64()*(cfg.CapMax-cfg.CapMin)
			o.links = append(o.links, overlayLink{u: u, v: v, latency: sp.dist, capacity: c, avail: c})
			o.adj[u] = append(o.adj[u], idx)
			o.adj[v] = append(o.adj[v], idx)
		}
	}
}

// Compact reports whether this overlay was built without the pairwise
// latency matrix.
func (o *Overlay) Compact() bool { return o.lat == nil }

func (o *Overlay) hasLink(u, v int) bool {
	_, ok := o.linkSet[pairKey(u, v)]
	return ok
}

// N returns the number of peers.
func (o *Overlay) N() int { return len(o.peerIP) }

// NumLinks returns the number of overlay links.
func (o *Overlay) NumLinks() int { return len(o.links) }

// PeerIP returns the IP node hosting peer p.
func (o *Overlay) PeerIP(p int) int { return o.peerIP[p] }

// Latency returns the one-way control-message latency between peers a and b
// in milliseconds (the IP-layer shortest path between their hosts). On a
// compact overlay the matrix does not exist: linked pairs answer from the
// link, anything else from the overlay-path latency (+Inf when disconnected).
func (o *Overlay) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	if o.lat != nil {
		return o.lat[a][b]
	}
	if lat, _, ok := o.RouteQoS(a, b); ok {
		return lat
	}
	return math.Inf(1)
}

// Degree returns the number of overlay links incident to peer p.
func (o *Overlay) Degree(p int) int { return len(o.adj[p]) }

// AddPeer extends a built overlay with one new peer hosted on IP node ip:
// pairwise latencies are derived from fresh IP shortest paths, the newcomer
// is connected to its `degree` latency-nearest peers (mesh-style), and the
// route cache is invalidated. It returns the new peer's index. This is the
// data-plane half of a dynamic peer arrival.
func (o *Overlay) AddPeer(g *Graph, ip, degree int, rng *rand.Rand) int {
	if o.lat == nil {
		panic("topology: AddPeer on a compact overlay")
	}
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

	if degree < 1 {
		degree = 4
	}
	for _, v := range nearestK(row, n, degree) {
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
	o.cacheReset()
	o.loff, o.lto, o.llink, o.llat = nil, nil, nil, nil
	return n
}

// cacheReset drops every cached routing table and the truncated-search
// scratch (its arrays are sized to the peer count, which may have changed).
func (o *Overlay) cacheReset() {
	o.routeCache = make(map[int]*routeSlot)
	o.lruHead, o.lruTail = nil, nil
	o.trunc = nil
}

// cacheGet returns src's cached table and marks it most recently used.
func (o *Overlay) cacheGet(src int) (routeTable, bool) {
	s, ok := o.routeCache[src]
	if !ok {
		return routeTable{}, false
	}
	if s != o.lruHead {
		// Unlink, then splice in at the head.
		s.prev.next = s.next
		if s.next != nil {
			s.next.prev = s.prev
		} else {
			o.lruTail = s.prev
		}
		s.prev = nil
		s.next = o.lruHead
		o.lruHead.prev = s
		o.lruHead = s
	}
	return s.rt, true
}

// cacheAdd computes src's full table and inserts it at the head of the
// recency list. When the cache is at its bound, the least recently used slot
// is unlinked first and refilled in place, so a full cache recomputes
// without allocating. Eviction follows only the (deterministic) access
// sequence, so same-seed runs evict identically.
func (o *Overlay) cacheAdd(src int) routeTable {
	var s *routeSlot
	if o.routeCap >= 0 && len(o.routeCache) >= o.routeCap {
		s = o.lruTail
		o.lruTail = s.prev
		if o.lruTail != nil {
			o.lruTail.next = nil
		} else {
			o.lruHead = nil
		}
		delete(o.routeCache, s.src)
	} else {
		s = &routeSlot{rt: newRouteTable(o.N())}
	}
	o.dijkstraInto(src, s.rt)
	s.src, s.prev, s.next = src, nil, o.lruHead
	if o.lruHead != nil {
		o.lruHead.prev = s
	} else {
		o.lruTail = s
	}
	o.lruHead = s
	o.routeCache[src] = s
	return s.rt
}

// freezeLinks packs the per-peer link lists into the frozen CSR arrays.
func (o *Overlay) freezeLinks() {
	n := o.N()
	o.loff = make([]int32, n+1)
	for p, idxs := range o.adj {
		o.loff[p+1] = o.loff[p] + int32(len(idxs))
	}
	half := o.loff[n]
	o.lto = make([]int32, half)
	o.llink = make([]int32, half)
	o.llat = make([]float64, half)
	for p, idxs := range o.adj {
		at := o.loff[p]
		for _, idx := range idxs {
			l := o.links[idx]
			to := l.u
			if to == p {
				to = l.v
			}
			o.lto[at] = int32(to)
			o.llink[at] = int32(idx)
			o.llat[at] = l.latency
			at++
		}
	}
}

// Route returns the shortest-latency overlay path from a to b, or ok=false
// if none exists. Per-source tables are cached in an LRU bounded by
// OverlayConfig.RouteCacheSize and invalidated only by AddPeer, since links
// otherwise never change. Once the cache is full, a near destination (one
// that settles within a small ball around the source) is answered by a
// truncated search without touching the cache; only far destinations pay a
// full Dijkstra and recycle an LRU slot. Because Dijkstra's relaxation order
// is deterministic and settled entries never change, every code path returns
// the identical Path — the cache bound affects memory and recomputation, not
// results, so same-seed traces stay byte-identical at any bound.
func (o *Overlay) Route(a, b int) (Path, bool) {
	if a == b {
		return Path{Peers: []int{a}, Latency: 0}, true
	}
	rt, ok := o.cacheGet(a)
	if !ok {
		rt = o.missTable(a, b)
	}
	return o.pathFrom(rt, a, b)
}

// RouteQoS returns the latency and the bottleneck available bandwidth (kbps)
// of the path Route(a, b) returns, or ok=false if none exists. It walks the
// same predecessor chain without materializing a Path, so a cache hit
// allocates nothing; the bottleneck is a min, so the values are bit-identical
// to Route followed by AvailBandwidth. a == b has latency 0 and infinite
// bandwidth, as the empty path does.
func (o *Overlay) RouteQoS(a, b int) (latency, bottleneck float64, ok bool) {
	if a == b {
		return 0, math.Inf(1), true
	}
	rt, hit := o.cacheGet(a)
	if !hit {
		rt = o.missTable(a, b)
	}
	if math.IsInf(rt.dist[b], 1) {
		return 0, 0, false
	}
	bottleneck = math.Inf(1)
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		if avail := o.links[rt.prevLink[at]].avail; avail < bottleneck {
			bottleneck = avail
		}
	}
	return rt.dist[b], bottleneck, true
}

// missTable answers a route-cache miss from a with a table whose entries on
// the a→b path — b's distance (+Inf when unreachable) and every predecessor
// back to a — are exact: the truncated-search scratch when the cache is full
// and b is near, otherwise a freshly computed table added to the cache. The
// result aliases cache or scratch storage and is valid only until the next
// routing call. Route and RouteQoS look the cache up themselves, so a hit
// costs no extra call (measurably faster on cache-hit Route).
func (o *Overlay) missTable(a, b int) routeTable {
	if o.routeCap >= 0 && len(o.routeCache) >= o.routeCap && o.routeNear(a, b) {
		return o.trunc.routeTable
	}
	return o.cacheAdd(a)
}

// pathFrom materializes the a→b path from a per-source table. Walk the
// predecessor chain once to size the path exactly, then fill backward: two
// right-sized allocations instead of append-grow + reverse. Route is the
// hottest call in probe forwarding, so this matters.
func (o *Overlay) pathFrom(rt routeTable, a, b int) (Path, bool) {
	if math.IsInf(rt.dist[b], 1) {
		return Path{}, false
	}
	hops := 0
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		hops++
	}
	peers := make([]int, hops+1)
	links := make([]int, hops)
	i := hops
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		peers[i] = at
		links[i-1] = int(rt.prevLink[at])
		i--
	}
	peers[0] = a
	return Path{Peers: peers, Links: links, Latency: rt.dist[b]}, true
}

// routeNear runs Dijkstra from a into the o.trunc scratch but stops as soon
// as b settles, giving up once the settled ball exceeds ~n/8 peers. It
// reports whether the search reached a verdict: b settled (its distance and
// predecessor chain are exact — a settled node's entries are final, and the
// relaxation order up to that point is identical to the full run's), or a's
// entire component settled without finding b (b's distance stays +Inf: no
// route exists). false means b lies outside the ball and the caller must
// fall back to a full Dijkstra. Nothing is cached; the epoch-stamped scratch
// keeps per-call cost O(ball), not O(peers).
func (o *Overlay) routeNear(a, b int) bool {
	if o.loff == nil {
		o.freezeLinks()
	}
	n := o.N()
	ts := o.trunc
	if ts == nil || len(ts.dist) < n {
		ts = &truncRouteState{routeTable: newRouteTable(n), stamp: make([]uint32, n)}
		o.trunc = ts
	}
	ts.epoch++
	if ts.epoch == 0 { // wrapped: stale stamps could alias, clear them
		for i := range ts.stamp {
			ts.stamp[i] = 0
		}
		ts.epoch = 1
	}
	touch := func(v int32) {
		if ts.stamp[v] != ts.epoch {
			ts.stamp[v] = ts.epoch
			ts.dist[v] = math.Inf(1)
			ts.prevPeer[v] = -1
			ts.prevLink[v] = -1
		}
	}
	limit := n / 8
	if limit < 32 {
		limit = 32
	}
	ts.pq.reset()
	touch(int32(a))
	touch(int32(b)) // so the unreachable verdict reads +Inf, not a stale entry
	ts.dist[a] = 0
	ts.pq.push(distItem{node: a, dist: 0})
	settled := 0
	for ts.pq.len() > 0 {
		it := ts.pq.pop()
		if it.dist > ts.dist[it.node] {
			continue
		}
		if it.node == b {
			return true
		}
		settled++
		if settled >= limit {
			return false
		}
		for i, end := o.loff[it.node], o.loff[it.node+1]; i < end; i++ {
			to := o.lto[i]
			touch(to)
			if nd := it.dist + o.llat[i]; nd < ts.dist[to] {
				ts.dist[to] = nd
				ts.prevPeer[to] = int32(it.node)
				ts.prevLink[to] = o.llink[i]
				ts.pq.push(distItem{node: int(to), dist: nd})
			}
		}
	}
	// The queue drained before the limit: a's entire component is settled
	// and b is not in it.
	return true
}

// dijkstraInto fills rt (sized to the peer count) with the full
// shortest-path tree from src.
func (o *Overlay) dijkstraInto(src int, rt routeTable) {
	if o.loff == nil {
		o.freezeLinks()
	}
	for i := range rt.dist {
		rt.dist[i] = math.Inf(1)
		rt.prevPeer[i] = -1
		rt.prevLink[i] = -1
	}
	rt.dist[src] = 0
	var pq distPQ
	pq.push(distItem{node: src, dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > rt.dist[it.node] {
			continue
		}
		for i, end := o.loff[it.node], o.loff[it.node+1]; i < end; i++ {
			to := o.lto[i]
			if nd := it.dist + o.llat[i]; nd < rt.dist[to] {
				rt.dist[to] = nd
				rt.prevPeer[to] = int32(it.node)
				rt.prevLink[to] = o.llink[i]
				pq.push(distItem{node: int(to), dist: nd})
			}
		}
	}
}

// AvailBandwidth returns the bottleneck available bandwidth along p in kbps.
// An empty path (same source and destination) has infinite bandwidth.
func (o *Overlay) AvailBandwidth(p Path) float64 {
	bw := math.Inf(1)
	for _, idx := range p.Links {
		if a := o.links[idx].avail; a < bw {
			bw = a
		}
	}
	return bw
}

// AllocBandwidth reserves bw kbps on every link of p. It either reserves on
// all links or none, returning whether the reservation succeeded.
func (o *Overlay) AllocBandwidth(p Path, bw float64) bool {
	if o.AvailBandwidth(p) < bw {
		return false
	}
	for _, idx := range p.Links {
		o.links[idx].avail -= bw
	}
	return true
}

// ReleaseBandwidth returns bw kbps to every link of p, clamping at capacity.
func (o *Overlay) ReleaseBandwidth(p Path, bw float64) {
	for _, idx := range p.Links {
		l := &o.links[idx]
		l.avail += bw
		if l.avail > l.capacity {
			l.avail = l.capacity
		}
	}
}

// LinkCapacity returns the total capacity of overlay link idx in kbps.
func (o *Overlay) LinkCapacity(idx int) float64 { return o.links[idx].capacity }

// WideAreaLatencies builds an n×n one-way latency matrix (milliseconds)
// shaped like a wide-area deployment across a few geographic clusters
// (the PlanetLab stand-in used by the live runtime): low intra-cluster
// latency, tens of milliseconds cross-continent, ~80–120 ms transatlantic.
func WideAreaLatencies(n int, rng *rand.Rand) [][]float64 {
	type cluster struct{ share float64 }
	clusters := []cluster{{0.4}, {0.35}, {0.25}} // US-West, US-East, Europe
	assign := make([]int, n)
	for i := range assign {
		r := rng.Float64()
		acc := 0.0
		for c, cl := range clusters {
			acc += cl.share
			if r < acc {
				assign[i] = c
				break
			}
		}
	}
	base := [3][3]float64{
		{5, 35, 90},
		{35, 5, 75},
		{90, 75, 8},
	}
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b := base[assign[i]][assign[j]]
			l := b * (0.8 + 0.4*rng.Float64()) // ±20% jitter around the base
			lat[i][j] = l
			lat[j][i] = l
		}
	}
	return lat
}
