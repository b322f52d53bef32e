package simnet

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/p2p"
)

// typeModel tallies, from the test's own bookkeeping, what Network.Stats
// must report for the scripted traffic of TestStatsByTypeMatchesReference.
type typeModel struct {
	byType                        map[string]int64
	delivered, unhandled, dropped int64
}

// TestStatsByTypeMatchesReference sends a random mix of message types over
// a network that duplicates every message and loses everything on one link.
// Some types are never registered, one is sent before it is registered, one
// is registered twice, one destination is down, and the counters are reset
// half way. After every phase, ByType, Delivered, Unhandled and Dropped must
// equal a reference tallied by the test, ByType must hold exactly the types
// sent since the reset, and no returned map may alias the network's state.
func TestStatsByTypeMatchesReference(t *testing.T) {
	nw, ns := newTestNet(5)
	const lossy, dead = 3, 4
	nw.SetFaults(FaultPlan{
		Seed:    1,
		Default: LinkFaults{Dup: 1},
		Links:   map[[2]p2p.NodeID]LinkFaults{{0, lossy}: {Loss: 1}},
	})
	nw.Fail(dead)

	type reg struct {
		node int
		typ  string
	}
	handled := map[reg]bool{}   // (node, type) pairs with a handler
	calls := map[string]int64{} // handler invocations per handler tag
	handle := func(node int, typ, tag string) {
		handled[reg{node, typ}] = true
		ns[node].Handle(typ, func(p2p.Node, p2p.Message) { calls[tag]++ })
	}
	for node := 0; node < 4; node++ {
		handle(node, "a.ping", "a")
		handle(node, "b.pong", "b")
	}
	handle(1, "c.late", "c-old")
	handle(1, "c.late", "c")  // re-Handle: replaces, keeps one ID
	handle(2, "z.never", "z") // registered, never sent: must not appear

	types := []string{"a.ping", "b.pong", "c.late", "u.unregistered", "v.nobody"}
	model := typeModel{byType: map[string]int64{}}
	rng := rand.New(rand.NewSource(7))
	send := func(n int, pick []string) {
		for i := 0; i < n; i++ {
			from, to := rng.Intn(4), rng.Intn(5)
			typ := pick[rng.Intn(len(pick))]
			ns[from].Send(p2p.Message{Type: typ, To: p2p.NodeID(to), Size: 10})
			model.byType[typ]++ // once per send, duplicated or lost
			switch {
			case from == 0 && to == lossy:
				// killed at send time: no copy arrives
			case to == dead:
				model.dropped += 2
			case handled[reg{to, typ}]:
				model.delivered += 2
			default:
				model.unhandled += 2
			}
		}
		nw.Sim().RunUntilIdle()
	}
	check := func(phase string) {
		t.Helper()
		st := nw.Stats()
		if !maps.Equal(st.ByType, model.byType) {
			t.Fatalf("%s: ByType = %v, want %v", phase, st.ByType, model.byType)
		}
		if st.Delivered != model.delivered || st.Unhandled != model.unhandled || st.Dropped != model.dropped {
			t.Fatalf("%s: delivered/unhandled/dropped = %d/%d/%d, want %d/%d/%d", phase,
				st.Delivered, st.Unhandled, st.Dropped, model.delivered, model.unhandled, model.dropped)
		}
		var sum int64
		for _, n := range calls {
			sum += n
		}
		if sum != st.Delivered {
			t.Fatalf("%s: handlers ran %d times, Delivered = %d", phase, sum, st.Delivered)
		}
		if calls["c-old"] != 0 {
			t.Fatalf("%s: a replaced handler ran %d times", phase, calls["c-old"])
		}
		// The returned map is the caller's: writing to it changes nothing.
		st.ByType["a.ping"] = -1
		st.ByType["injected"] = 1
		if again := nw.Stats(); !maps.Equal(again.ByType, model.byType) {
			t.Fatalf("%s: writing to a returned ByType reached the network: %v", phase, again.ByType)
		}
	}

	// "u.unregistered" and "v.nobody" are interned by Send alone.
	send(200, types)
	check("phase 1")
	before := nw.Stats()

	// A type first sent without a handler is then registered on node 2.
	handle(2, "u.unregistered", "u")
	nw.ResetStats()
	clear(calls)
	model = typeModel{byType: map[string]int64{}}
	check("after reset")

	send(200, types[:4]) // "v.nobody" is not sent again: it must not reappear
	check("phase 2")
	if calls["u"] == 0 {
		t.Fatal("a handler registered after its type was first sent never ran")
	}
	if before.ByType["v.nobody"] == 0 || before.Delivered == 0 {
		t.Fatalf("a stats snapshot changed after later traffic: %+v", before)
	}
}

// cloned is a payload implementing p2p.PayloadCloner; plain is the same
// shape without the hook.
type cloned struct{ hops []int }

func (c *cloned) ClonePayload() any { return &cloned{hops: append([]int(nil), c.hops...)} }

type plain struct{ hops []int }

// TestDupClonesPayload: a duplicated message whose payload implements
// p2p.PayloadCloner reaches its two copies as distinct but equal values, so
// a receiver mutating one leaves the other alone; any other payload is
// delivered unchanged to both copies.
func TestDupClonesPayload(t *testing.T) {
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 1, Default: LinkFaults{Dup: 1}})
	var got []any
	ns[1].Handle("rec", func(_ p2p.Node, msg p2p.Message) { got = append(got, msg.Payload) })

	orig := &cloned{hops: []int{1, 2}}
	ns[0].Send(p2p.Message{Type: "rec", To: 1, Payload: orig})
	nw.Sim().RunUntilIdle()
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	a, b := got[0].(*cloned), got[1].(*cloned)
	if a == b {
		t.Fatal("both copies of a cloneable payload share one pointer")
	}
	if a != orig && b != orig {
		t.Fatal("neither copy is the payload that was sent")
	}
	a.hops[0] = 99
	if b.hops[0] == 99 {
		t.Fatal("the copies share their backing array")
	}

	got = nil
	p := &plain{hops: []int{1}}
	ns[0].Send(p2p.Message{Type: "rec", To: 1, Payload: p})
	nw.Sim().RunUntilIdle()
	if len(got) != 2 || got[0] != any(p) || got[1] != any(p) {
		t.Fatalf("a payload without the hook was not delivered unchanged: %v", got)
	}
}
