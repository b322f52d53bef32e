package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

func TestClusterDefaults(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 5})
	if len(c.Peers) != 60 {
		t.Fatalf("peers=%d", len(c.Peers))
	}
	// Every peer hosts at least one registered component.
	for i, p := range c.Peers {
		if len(p.Components) == 0 {
			t.Fatalf("peer %d hosts nothing", i)
		}
		for _, comp := range p.Components {
			if comp.Peer != p2p.NodeID(i) {
				t.Fatalf("component %s claims wrong peer", comp.ID)
			}
		}
	}
	// Registrations are discoverable.
	fns := c.FunctionsByReplicas()
	if len(fns) == 0 {
		t.Fatal("no functions deployed")
	}
	found := false
	c.Peers[0].Registry.Discover(fns[0], time.Second, func(comps []service.Component, _ int, ok bool) {
		found = ok && len(comps) == c.Replicas(fns[0])
	})
	c.Sim.RunUntilIdle()
	if !found {
		t.Fatal("discovery returned fewer components than deployed")
	}
}

func TestClusterDeterministicAcrossBuilds(t *testing.T) {
	a := cluster.New(cluster.Options{Seed: 6, Peers: 40})
	b := cluster.New(cluster.Options{Seed: 6, Peers: 40})
	for i := range a.Peers {
		if len(a.Peers[i].Components) != len(b.Peers[i].Components) {
			t.Fatalf("peer %d component counts differ", i)
		}
		for k := range a.Peers[i].Components {
			if a.Peers[i].Components[k].ID != b.Peers[i].Components[k].ID {
				t.Fatalf("peer %d component %d differs", i, k)
			}
		}
	}
}

func TestFailFraction(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 8, Peers: 50})
	failed := c.FailFraction(0.2)
	if len(failed) != 10 {
		t.Fatalf("failed %d peers, want 10", len(failed))
	}
	for _, id := range failed {
		if c.Net.Alive(id) {
			t.Fatal("failed peer reported alive")
		}
	}
}

func TestWorldAdapterConsistency(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 9, Peers: 40})
	w := c.World()
	fns := c.FunctionsByReplicas()
	if got := len(w.ComponentsFor(fns[0])); got != c.Replicas(fns[0]) {
		t.Fatalf("world sees %d replicas, cluster %d", got, c.Replicas(fns[0]))
	}
	if !w.Alive(0) {
		t.Fatal("world liveness wrong")
	}
	var req qos.Resources
	req[qos.CPU] = 1
	if !w.Commit(3, req) {
		t.Fatal("commit failed on idle peer")
	}
	if c.Peers[3].Ledger.HardAllocated() == (qos.Resources{}) {
		t.Fatal("world commit did not reach the ledger")
	}
	w.Free(3, req)
	if c.Peers[3].Ledger.HardAllocated() != (qos.Resources{}) {
		t.Fatal("world free did not reach the ledger")
	}
}

// TestDynamicPeerArrival joins a brand-new peer into a running deployment
// and verifies it becomes discoverable and composable.
func TestDynamicPeerArrival(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 10, Peers: 40, Catalog: catalog(4)})
	before := len(c.Peers)

	// The newcomer provides a function nobody else offers.
	newcomer := c.Join([]string{"exotic"}, 0)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)

	if len(c.Peers) != before+1 {
		t.Fatalf("peer count %d, want %d", len(c.Peers), before+1)
	}
	if newcomer.DHT.NumLeaves() == 0 {
		t.Fatal("newcomer never joined the DHT")
	}
	// Discoverable from an old peer.
	found := false
	c.Peers[3].Registry.Discover("exotic", 2*time.Second, func(comps []service.Component, _ int, ok bool) {
		found = ok && len(comps) == 1
	})
	c.Sim.Run(c.Sim.Now() + 10*time.Second)
	if !found {
		t.Fatal("newcomer's service not discoverable")
	}
	// Composable: a request spanning an old function and the newcomer's.
	fns := c.FunctionsByReplicas()
	q := qos.Unbounded()
	q[qos.Delay] = 8000
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	req := &service.Request{
		ID: 77, FGraph: fgraph.Linear(fns[0], "exotic"), QoSReq: q, Res: res,
		Bandwidth: 10, Source: 1, Dest: 2, Budget: 16,
	}
	okc := false
	c.Peers[1].Engine.Compose(req, func(r bcp.Result) {
		okc = r.Ok
		if r.Ok {
			if !r.Best.ContainsPeer(newcomer.Node.ID()) {
				t.Error("composition did not use the only exotic provider")
			}
			c.Peers[1].Engine.Teardown(r.Best)
		}
	})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if !okc {
		t.Fatal("composition through the newcomer failed")
	}
}
