package recovery_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
)

// visitKey names the snapshot one probe visit recorded. Every visit first
// commits a sliver of its host's resources, so the (peer, availability)
// pair is unique to the visit.
func visitKey(peer p2p.NodeID, avail qos.Resources) string {
	k := strconv.Itoa(int(peer))
	for _, v := range avail {
		k += "/" + strconv.FormatFloat(v, 'g', -1, 64)
	}
	return k
}

// pathKey names the snapshots a probe copy carries.
func pathKey(walk []p2p.NodeID, avail []qos.Resources) string {
	var b strings.Builder
	for i, a := range avail {
		b.WriteString(visitKey(walk[i], a))
		b.WriteByte('|')
	}
	return b.String()
}

// TestDuplicatedProbeCopiesKeepOwnSnapshots duplicates every message while
// a five-hop session is monitored, so each maintenance probe splits into a
// tree of copies. Each pong must carry, at every position i, the snapshot
// its own copy recorded at hop i: the visit that recorded it must have
// extended exactly the pong's preceding positions, and every visit must
// reach the source in some pong. Probes already in flight when the
// handlers are wrapped pass through unchecked. Copies that shared one avail
// array broke the second rule: at the fourth hop (len 3, cap 4 after
// append's growth) the later copy overwrote the earlier copy's snapshot
// before either pong went home.
func TestDuplicatedProbeCopiesKeepOwnSnapshots(t *testing.T) {
	c := newCluster(36, recovery.DefaultConfig())
	req := makeReq(c, 1, 5, 120)
	sess := establish(t, c, req)
	if n := len(sess.Active.Pattern.TopoOrder()); n < 4 {
		t.Fatalf("active graph has %d hops, want at least 4", n)
	}
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Dup: 1}})

	var sliver qos.Resources
	sliver[qos.CPU] = 1e-6
	visits := map[string]string{} // visit key -> path key of the prefix it extended
	unreported := map[string]bool{}
	tracked := func(peer p2p.NodeID, avail qos.Resources) bool {
		_, ok := visits[visitKey(peer, avail)]
		return ok
	}
	for _, p := range c.Peers {
		p.Node.Handle(recovery.MsgProbe, func(n p2p.Node, msg p2p.Message) {
			walk, avail := recovery.ProbeRecord(msg)
			if i := len(avail) - 1; i >= 0 && !tracked(walk[i], avail[i]) {
				p.Recovery.OnProbe(n, msg) // sent before the handlers were wrapped
				return
			}
			prefix := pathKey(walk, avail)
			if !p.Ledger.CommitDirect(sliver) {
				t.Fatalf("peer %d: no room left to mark a probe visit", n.ID())
			}
			k := visitKey(n.ID(), p.Ledger.AvailableHard())
			if _, dup := visits[k]; dup {
				t.Fatalf("two visits recorded the same snapshot %s", k)
			}
			visits[k] = prefix
			unreported[k] = true
			p.Recovery.OnProbe(n, msg)
		})
	}
	src := c.Peers[int(req.Source)]
	pongs := 0
	src.Node.Handle(recovery.MsgPong, func(n p2p.Node, msg p2p.Message) {
		walk, avail := recovery.ProbeRecord(msg)
		if len(avail) > 0 && !tracked(walk[0], avail[0]) {
			src.Recovery.OnPong(n, msg)
			return
		}
		if len(avail) != len(walk) {
			t.Fatalf("pong carries %d snapshots for a %d-hop walk", len(avail), len(walk))
		}
		for i, a := range avail {
			k := visitKey(walk[i], a)
			if prefix, ok := visits[k]; !ok || prefix != pathKey(walk, avail[:i]) {
				t.Fatalf("pong position %d carries a snapshot its own copy's hop did not record", i)
			}
			delete(unreported, k)
		}
		pongs++
		src.Recovery.OnPong(n, msg)
	})

	c.Sim.Run(c.Sim.Now() + 7*time.Second)
	src.Recovery.Close(req.ID)
	c.Sim.Run(c.Sim.Now() + 10*time.Second) // drain copies still in flight
	if pongs == 0 || len(visits) == 0 {
		t.Fatalf("no probes came back (%d visits, %d pongs)", len(visits), pongs)
	}
	if len(unreported) > 0 {
		t.Fatalf("%d of %d probe visits never reached the source: their snapshots were overwritten by another copy",
			len(unreported), len(visits))
	}
}

// TestPongBookkeepingTracksMonitoredGraphs fails component peers of four
// monitored sessions one at a time, so backups break, switchovers promote
// them and reactive re-compositions replace whole pools. Afterwards every
// key a session keeps pong times or miss counts for must belong to its
// active graph, a backup or a pool graph.
func TestPongBookkeepingTracksMonitoredGraphs(t *testing.T) {
	cfg := recovery.DefaultConfig()
	cfg.MissedPongs = 2 // so miss counts outlive a single check
	c := newCluster(37, cfg)
	var sessions []*recovery.Session
	for id := uint64(1); id <= 4; id++ {
		sessions = append(sessions, establish(t, c, makeReq(c, id, 3, 60)))
	}
	mgr := c.Peers[0].Recovery
	check := func(when string) {
		t.Helper()
		for _, s := range sessions {
			if mgr.Session(s.ID) == nil {
				continue
			}
			monitored := []string{s.Active.Key()}
			for _, g := range slices.Concat(s.Backups, s.Pool) {
				monitored = append(monitored, g.Key())
			}
			lastPong, missed := s.PongKeys()
			for _, k := range slices.Concat(lastPong, missed) {
				if !slices.Contains(monitored, k) {
					t.Errorf("%s: session %d keeps pong bookkeeping for unmonitored graph %s", when, s.ID, k)
				}
			}
		}
	}
	for round := 0; round < 8; round++ {
		for _, s := range sessions {
			if mgr.Session(s.ID) == nil {
				continue
			}
			victims := slices.Concat([]*service.Graph{s.Active}, s.Backups)
			g := victims[round%len(victims)]
			for _, snap := range g.Components() {
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
	if st.FailuresDetected == 0 || st.Switchovers == 0 {
		t.Fatalf("the churn neither broke nor repaired a session: %+v", st)
	}
}
