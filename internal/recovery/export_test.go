package recovery

import (
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// ProbeHeaderGraphs returns the graphs s holds probe headers for.
func (s *Session) ProbeHeaderGraphs() []*service.Graph {
	out := make([]*service.Graph, 0, len(s.probes))
	for g := range s.probes {
		out = append(out, g)
	}
	return out
}

// ProbeHeader returns the key and walk order cached in g's probe header.
func (s *Session) ProbeHeader(g *service.Graph) (key string, order []int) {
	h := s.probes[g]
	return h.key, h.order
}

// PongKeys returns the graph keys s holds pong bookkeeping for: the last
// pong times and the consecutive-miss counts.
func (s *Session) PongKeys() (lastPong, missed []string) {
	for k := range s.lastPong {
		lastPong = append(lastPong, k)
	}
	for k := range s.missed {
		missed = append(missed, k)
	}
	return lastPong, missed
}

// OnProbe and OnPong run the manager's maintenance-probe handlers, so a test
// can wrap them.
func (m *Manager) OnProbe(n p2p.Node, msg p2p.Message) { m.onProbe(n, msg) }
func (m *Manager) OnPong(n p2p.Node, msg p2p.Message)  { m.onPong(n, msg) }

// ProbeRecord returns what a maintenance probe or pong carries: the peers
// its walk visits, in order, and the availability its hops recorded so far.
func ProbeRecord(msg p2p.Message) (walk []p2p.NodeID, avail []qos.Resources) {
	pm := msg.Payload.(*probeMsg)
	for _, fn := range pm.hdr.order {
		walk = append(walk, pm.hdr.graph.Comps[fn].Comp.Peer)
	}
	return walk, pm.avail
}
