package recovery

import "repro/internal/service"

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
