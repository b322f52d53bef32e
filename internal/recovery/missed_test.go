package recovery_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/simnet"
)

// blipSource cuts the session source off from every other peer for a window
// long enough to silence one or two maintenance-probe rounds but shorter
// than three.
func blipSource(c *cluster.Cluster, nPeers int) {
	others := make([]p2p.NodeID, 0, nPeers-1)
	for i := 1; i < nPeers; i++ {
		others = append(others, p2p.NodeID(i))
	}
	c.ApplyFaults(simnet.FaultPlan{
		Seed: 1,
		Partitions: []simnet.Partition{{
			Name: "blip", A: []p2p.NodeID{0}, B: others,
			From: 1 * time.Second, Until: 4 * time.Second,
		}},
	})
}

// TestMissedPongsToleratesTransientSilence: with MissedPongs=3, a network
// blip that silences at most two consecutive probe rounds must not be
// declared a failure; with the eager default of 1 the same blip must be.
func TestMissedPongsToleratesTransientSilence(t *testing.T) {
	run := func(missed int) (detected int, alive bool) {
		cfg := recovery.DefaultConfig()
		cfg.MissedPongs = missed
		c := newCluster(33, cfg)
		req := makeReq(c, 4, 3, 60)
		establish(t, c, req)
		blipSource(c, len(c.Peers))
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
		mgr := c.Peers[int(req.Source)].Recovery
		return mgr.Stats().FailuresDetected, mgr.Session(req.ID) != nil
	}

	detected, alive := run(3)
	if detected != 0 {
		t.Errorf("MissedPongs=3: %d failures detected across a 2-round blip, want 0", detected)
	}
	if !alive {
		t.Error("MissedPongs=3: session did not survive the blip")
	}

	detected, _ = run(1)
	if detected == 0 {
		t.Error("MissedPongs=1: the same blip went undetected (hysteresis leaked into the default)")
	}
}

// TestDuplicatedControlTrafficHarmless: duplicating every message on the
// wire (pongs, ping acks, setup replies) must neither break a healthy
// session nor trip spurious failure detection.
func TestDuplicatedControlTrafficHarmless(t *testing.T) {
	c := newCluster(34, recovery.DefaultConfig())
	req := makeReq(c, 5, 3, 60)
	establish(t, c, req)
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Dup: 1}})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	mgr := c.Peers[int(req.Source)].Recovery
	if st := mgr.Stats(); st.FailuresDetected != 0 {
		t.Errorf("duplicated traffic tripped %d failure detections", st.FailuresDetected)
	}
	if mgr.Session(req.ID) == nil {
		t.Error("session died under duplication-only faults")
	}
}

// TestProbeHeadersTrackMonitoredGraphs fails component peers one at a time
// under duplicated traffic while four sessions are monitored, so backups
// break, switchovers promote them and reactive re-compositions replace
// whole pools. Throughout, a session holds probe headers only for its
// active graph, backups and pool, each header's cached key and walk order
// still match the graph (pongs rewrite the graph's snapshots after the
// header is built), and closing a session clears its headers.
func TestProbeHeadersTrackMonitoredGraphs(t *testing.T) {
	c := newCluster(35, recovery.DefaultConfig())
	var sessions []*recovery.Session
	for id := uint64(1); id <= 4; id++ {
		sessions = append(sessions, establish(t, c, makeReq(c, id, 3, 60)))
	}
	c.ApplyFaults(simnet.FaultPlan{Seed: 2, Default: simnet.LinkFaults{Dup: 0.2}})
	mgr := c.Peers[0].Recovery

	check := func(when string) {
		t.Helper()
		for _, s := range sessions {
			if mgr.Session(s.ID) == nil {
				continue
			}
			graphs := s.ProbeHeaderGraphs()
			for _, g := range graphs {
				if g != s.Active && !slices.Contains(s.Backups, g) && !slices.Contains(s.Pool, g) {
					t.Fatalf("%s: session %d holds a header for a graph it no longer monitors", when, s.ID)
				}
				if key, order := s.ProbeHeader(g); key != g.Key() || !slices.Equal(order, g.Pattern.TopoOrder()) {
					t.Fatalf("%s: session %d header is stale: key %q vs %q", when, s.ID, key, g.Key())
				}
			}
			if len(graphs) == 0 {
				t.Fatalf("%s: live session %d holds no probe header", when, s.ID)
			}
		}
	}
	check("before failures")
	for round := 0; round < 6; round++ {
		for _, s := range sessions {
			if mgr.Session(s.ID) == nil {
				continue
			}
			for _, snap := range s.Active.Components() {
				if snap.Peer > 1 && c.Net.Alive(snap.Peer) {
					c.Net.Fail(snap.Peer)
					break
				}
			}
			break
		}
		c.Sim.Run(c.Sim.Now() + 15*time.Second)
		check(fmt.Sprintf("round %d", round))
	}
	st := mgr.Stats()
	if st.FailuresDetected == 0 || st.Switchovers+st.Reactives == 0 {
		t.Fatalf("no failure was detected and repaired: %+v", st)
	}
	for _, s := range sessions {
		mgr.Close(s.ID)
		if n := len(s.ProbeHeaderGraphs()); n != 0 {
			t.Errorf("closed session %d still holds %d probe headers", s.ID, n)
		}
	}
}
