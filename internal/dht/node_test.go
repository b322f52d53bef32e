package dht

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// ring builds n DHT nodes over a simulated network with static tables.
func ring(t *testing.T, n int) (*simnet.Network, []*Node) {
	t.Helper()
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		host := nw.AddNode(p2p.NodeID(i))
		nodes[i] = New(host, nw.Alive)
	}
	Build(nodes)
	return nw, nodes
}

func TestPutGetRoundTrip(t *testing.T) {
	nw, nodes := ring(t, 50)
	key := Key("transcode")
	nodes[3].Put(key, "component-meta", 128)
	nw.Sim().RunUntilIdle()

	var got []any
	ok := false
	nodes[42].Get(key, time.Second, func(items []any, hops int, o bool) {
		got, ok = items, o
	})
	nw.Sim().RunUntilIdle()
	if !ok {
		t.Fatal("get failed")
	}
	if len(got) != 1 || got[0] != "component-meta" {
		t.Fatalf("got=%v", got)
	}
}

func TestAllNodesAgreeOnRoot(t *testing.T) {
	nw, nodes := ring(t, 80)
	key := Key("some-function")
	// Puts from several nodes must all land on the same root, so a get
	// sees every item.
	for i := 0; i < 5; i++ {
		nodes[i*7].Put(key, i, 64)
	}
	nw.Sim().RunUntilIdle()
	var got []any
	nodes[79].Get(key, time.Second, func(items []any, _ int, ok bool) {
		if ok {
			got = items
		}
	})
	nw.Sim().RunUntilIdle()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5 (puts landed on different roots)", len(got))
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	nw, nodes := ring(t, 200)
	totalHops, count := 0, 0
	for i := 0; i < 30; i++ {
		key := Key(string(rune('a' + i)))
		nodes[0].Put(key, i, 64)
	}
	nw.Sim().RunUntilIdle()
	for i := 0; i < 30; i++ {
		key := Key(string(rune('a' + i)))
		nodes[(i*13)%200].Get(key, time.Second, func(_ []any, hops int, ok bool) {
			if ok {
				totalHops += hops
				count++
			}
		})
	}
	nw.Sim().RunUntilIdle()
	if count != 30 {
		t.Fatalf("only %d/30 lookups succeeded", count)
	}
	avg := float64(totalHops) / float64(count)
	// log16(200) ≈ 1.9; allow generous slack but reject linear scans.
	if avg > 6 {
		t.Fatalf("average hops %.1f too high for prefix routing", avg)
	}
}

func TestGetMissingKeyReturnsEmpty(t *testing.T) {
	nw, nodes := ring(t, 30)
	called := false
	nodes[0].Get(Key("nothing-here"), time.Second, func(items []any, _ int, ok bool) {
		called = true
		if !ok {
			t.Error("lookup of missing key should succeed with empty result")
		}
		if len(items) != 0 {
			t.Errorf("items=%v", items)
		}
	})
	nw.Sim().RunUntilIdle()
	if !called {
		t.Fatal("callback never fired")
	}
}

func TestReplicationSurvivesRootFailure(t *testing.T) {
	nw, nodes := ring(t, 60)
	key := Key("resilient-fn")
	nodes[0].Put(key, "meta", 64)
	nw.Sim().RunUntilIdle()

	// Find and kill the root (the node holding the primary copy plus the
	// closest ID).
	root := -1
	for i, n := range nodes {
		if n.StoredUnder(key) > 0 && (root == -1 || Closer(key, n.Self(), nodes[root].Self())) {
			root = i
		}
	}
	if root == -1 {
		t.Fatal("no node stored the item")
	}
	nw.Fail(p2p.NodeID(root))

	got := false
	var items []any
	nodes[(root+1)%60].Get(key, time.Second, func(it []any, _ int, ok bool) {
		got, items = ok, it
	})
	nw.Sim().RunUntilIdle()
	if !got {
		t.Fatal("lookup failed after root death")
	}
	if len(items) != 1 || items[0] != "meta" {
		t.Fatalf("replica lookup items=%v", items)
	}
}

func TestGetTimeoutWhenIsolated(t *testing.T) {
	nw, nodes := ring(t, 20)
	key := Key("fn")
	nodes[5].Put(key, "x", 64)
	nw.Sim().RunUntilIdle()
	// Kill everyone except node 0 — no root or replica remains reachable,
	// and the liveness oracle steers routing to deliver locally, where the
	// item is absent... unless node 0 happens to hold a replica. Force the
	// stronger case: requester also drops all state by querying a fresh key
	// whose root is dead.
	for i := 1; i < 20; i++ {
		nw.Fail(p2p.NodeID(i))
	}
	done := false
	nodes[0].Get(key, 50*time.Millisecond, func(items []any, _ int, ok bool) {
		done = true
		// Either it resolves locally with no items (ok, empty) or times
		// out; both mean "not found" to the registry layer.
		if ok && len(items) > 0 && nodes[0].StoredUnder(key) == 0 {
			t.Error("impossible: items returned with no live replica")
		}
	})
	nw.Sim().RunUntilIdle()
	if !done {
		t.Fatal("callback never fired")
	}
}

func TestJoinThroughBootstrap(t *testing.T) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(2)))
	var nodes []*Node
	for i := 0; i < 10; i++ {
		nodes = append(nodes, New(nw.AddNode(p2p.NodeID(i)), nw.Alive))
	}
	Build(nodes)

	// A new node joins through node 0.
	joiner := New(nw.AddNode(p2p.NodeID(10)), nw.Alive)
	joiner.Join(0)
	nw.Sim().RunUntilIdle()

	if joiner.NumLeaves() == 0 {
		t.Fatal("joiner learned no neighbors")
	}
	// The joiner can store and the ring can read it back, and vice versa.
	key := Key("joined-fn")
	joiner.Put(key, "late", 64)
	nw.Sim().RunUntilIdle()
	ok := false
	nodes[7].Get(key, time.Second, func(items []any, _ int, o bool) {
		ok = o && len(items) == 1 && items[0] == "late"
	})
	nw.Sim().RunUntilIdle()
	if !ok {
		t.Fatal("ring could not read item stored by joiner")
	}
}

func TestJoinersAreRoutableAsRoots(t *testing.T) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(time.Millisecond), rand.New(rand.NewSource(3)))
	seed := New(nw.AddNode(0), nw.Alive)
	nodes := []*Node{seed}
	// Grow the ring one join at a time.
	for i := 1; i < 25; i++ {
		n := New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
		n.Join(p2p.NodeID((i - 1) / 2))
		nw.Sim().RunUntilIdle()
		nodes = append(nodes, n)
	}
	// Every node can resolve keys stored by every other node.
	fails := 0
	for i := 0; i < 10; i++ {
		key := Key(string(rune('A' + i)))
		nodes[i].Put(key, i, 32)
		nw.Sim().RunUntilIdle()
		ok := false
		nodes[24-i].Get(key, time.Second, func(items []any, _ int, o bool) {
			ok = o && len(items) >= 1
		})
		nw.Sim().RunUntilIdle()
		if !ok {
			fails++
		}
	}
	if fails > 0 {
		t.Fatalf("%d/10 lookups failed in incrementally joined ring", fails)
	}
}

func TestOverheadAccounted(t *testing.T) {
	nw, nodes := ring(t, 40)
	nw.ResetStats()
	nodes[0].Put(Key("fn"), "x", 64)
	nw.Sim().RunUntilIdle()
	st := nw.Stats()
	if st.MessagesSent == 0 || st.BytesSent == 0 {
		t.Fatalf("no overhead recorded: %+v", st)
	}
	if st.ByType[MsgReplica] == 0 {
		t.Fatal("replication messages missing")
	}
}

func TestLeafSetBounded(t *testing.T) {
	_, nodes := ring(t, 100)
	for i, n := range nodes {
		if n.NumLeaves() > LeafSize {
			t.Fatalf("node %d leaf set %d exceeds %d", i, n.NumLeaves(), LeafSize)
		}
		if n.NumLeaves() == 0 {
			t.Fatalf("node %d has empty leaf set", i)
		}
	}
}

func TestRoutingDeterministic(t *testing.T) {
	run := func() int {
		nw, nodes := ring(t, 64)
		hops := -1
		nodes[10].Put(Key("det"), "x", 64)
		nw.Sim().RunUntilIdle()
		nodes[20].Get(Key("det"), time.Second, func(_ []any, h int, ok bool) {
			if ok {
				hops = h
			}
		})
		nw.Sim().RunUntilIdle()
		return hops
	}
	h1, h2 := run(), run()
	if h1 == -1 || h1 != h2 {
		t.Fatalf("routing not deterministic: %d vs %d", h1, h2)
	}
}

func TestDistanceMonotonicRouting(t *testing.T) {
	// The next hop chosen by any node is strictly closer to the key,
	// guaranteeing termination.
	_, nodes := ring(t, 120)
	key := Key("monotone")
	for _, n := range nodes {
		next := n.nextHop(key)
		if next.Addr == p2p.NoNode {
			continue
		}
		selfP := n.Self().CommonPrefix(key)
		nextP := next.ID.CommonPrefix(key)
		longer := nextP > selfP
		sameButCloser := nextP >= selfP && Closer(key, next.ID, n.Self())
		if !longer && !sameButCloser {
			t.Fatalf("node %v forwarded without routing progress", n.Addr())
		}
	}
	// Exactly one node considers itself root.
	roots := 0
	for _, n := range nodes {
		if n.nextHop(key).Addr == p2p.NoNode {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots for one key, want 1", roots)
	}
}

func TestMathSanity(t *testing.T) {
	// Guard against accidental floating-point use in ID space: distances
	// must be exact.
	a, b := Key("p"), Key("q")
	if math.MaxInt8 < 0 { // keep math import honest
		t.Skip()
	}
	if Dist(a, b) != Dist(b, a) {
		t.Fatal("distance asymmetric")
	}
}
