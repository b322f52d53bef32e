package cluster_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
)

// TestJoinWiresLikeNew joins a peer into a deployment with every per-peer
// hook set (trace, counters, metrics, load, recovery) and checks that the
// newcomer's engine, DHT node, recovery manager and media node are wired
// like a peer cluster.New built. The cluster RNG's next draw after the join
// is pinned, so Join must keep consuming the shared stream in the same
// order and amount.
func TestJoinWiresLikeNew(t *testing.T) {
	rc := recovery.DefaultConfig()
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	met := obs.NewMetrics()
	c := cluster.New(cluster.Options{
		Seed: 11, Peers: 30, Catalog: catalog(6),
		Load:     &cluster.LoadOptions{Model: qos.DefaultLoadModel(), Aware: true, Shed: 0.9},
		Recovery: &rc, Trace: mem, Obs: reg, Metrics: met,
	})
	p := c.Join([]string{"fn0", "late"}, 3)
	const wantDraw = 4487882840612480748
	if got := c.Rng.Int63(); got != wantDraw {
		t.Errorf("cluster RNG draw after Join = %d, want %d", got, wantDraw)
	}

	for i, q := range []*cluster.Peer{c.Peers[0], p} {
		id := q.Node.ID()
		switch {
		case q.Engine.Host() != q.Node || q.Engine.Ledger() != q.Ledger:
			t.Errorf("peer %d: engine not on the peer's host and ledger", i)
		case q.Ledger.Capacity() != c.Peers[0].Ledger.Capacity():
			t.Errorf("peer %d: capacity %v, want %v", i, q.Ledger.Capacity(), c.Peers[0].Ledger.Capacity())
		case q.Engine.Trace != obs.Tracer(mem) || q.DHT.Trace != obs.Tracer(mem):
			t.Errorf("peer %d: engine or DHT tracer not wired", i)
		case q.Engine.Met != met || q.DHT.Met != met:
			t.Errorf("peer %d: engine or DHT metrics not wired", i)
		case q.Engine.Ctr == nil || q.Engine.Ctr != reg.Node(id) || q.DHT.Ctr != q.Engine.Ctr:
			t.Errorf("peer %d: engine or DHT counters are not the registry's block", i)
		case q.Engine.Load == nil:
			t.Errorf("peer %d: load oracle not wired", i)
		case q.Recovery == nil || q.Recovery.Trace != obs.Tracer(mem) || q.Recovery.Met != met:
			t.Errorf("peer %d: recovery manager missing or unwired", i)
		case q.Media == nil:
			t.Errorf("peer %d: no media node", i)
		}
	}
	if len(p.Components) != 2 || p.FailProb != 0 {
		t.Fatalf("joined peer: %d components, fail prob %v", len(p.Components), p.FailProb)
	}
	for k, comp := range p.Components {
		if comp.Peer != p.Node.ID() || comp.FailProb != 0 {
			t.Errorf("component %d: %+v", k, comp)
		}
		if got, ok := p.Engine.LocalComponent(comp.ID); !ok || got.ID != comp.ID {
			t.Errorf("component %s not hosted by the joined engine", comp.ID)
		}
	}

	// End to end: a session ending at the newcomer's "late" component
	// streams a frame into the newcomer's media node.
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	q := qos.Unbounded()
	q[qos.Delay] = 8000
	req := &service.Request{
		ID: 5, FGraph: fgraph.Linear("fn1", "late"), QoSReq: q, Res: p.Components[0].Res,
		Bandwidth: 10, Source: 1, Dest: p.Node.ID(), Budget: 16,
	}
	delivered := 0
	p.Media.OnDeliver(func(media.Frame) { delivered++ })
	c.Peers[1].Engine.Compose(req, func(r bcp.Result) {
		if !r.Ok {
			t.Error("composition through the newcomer failed")
			return
		}
		if err := c.Peers[1].Media.SendFrame(r.Best, media.NewFrame(1, 64, 48)); err != nil {
			t.Error(err)
		}
	})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if delivered != 1 {
		t.Fatalf("newcomer's media node received %d frames, want 1", delivered)
	}
}
