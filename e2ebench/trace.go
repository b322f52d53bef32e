package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
)

// tracer streams the traced run's events into the invariant checker and the
// span builder, and counts at the layer boundaries the events mark. It keeps
// no event log: the traced runs emit millions of events.
type tracer struct {
	check *obs.Checker
	spans *span.Builder

	// Counters the obs.Registry also keeps; compared after the run.
	sent, budget, dropped, returned, retx, dhtHops, netDrops, faults int64

	lookups, lookupHops int64 // request-serving DHT deliveries and their hops
	selects, qualified  int64 // select.done events, and those with a qualified graph

	// holder maps each probe to the peer it was sent to; downs lists when
	// each peer crashed. Together they tell whether an unresolved probe died
	// with a crashed holder.
	holder map[uint64]probeHop
	downs  map[p2p.NodeID][]time.Duration
	// lost counts probes that died with their holder.
	lost int
}

type probeHop struct {
	peer p2p.NodeID
	at   time.Duration
}

func newTracer() *tracer {
	return &tracer{
		check:  obs.NewChecker(),
		spans:  span.NewBuilder(),
		holder: map[uint64]probeHop{},
		downs:  map[p2p.NodeID][]time.Duration{},
	}
}

func (t *tracer) Emit(ev obs.Event) {
	t.check.Add(ev)
	t.spans.Add(ev)
	switch ev.Kind {
	case obs.KindProbeSent, obs.KindProbeForwarded:
		t.sent++
		t.budget += int64(ev.Budget)
		t.holder[ev.PID] = probeHop{ev.Peer, ev.TS}
	case obs.KindProbeDropped:
		t.dropped++
	case obs.KindProbeReturned:
		t.returned++
	case obs.KindProbeRetx:
		t.retx++
	case obs.KindDHTHop:
		t.dhtHops++
	case obs.KindDHTDeliver:
		if ev.Req != 0 {
			t.lookups++
			t.lookupHops += int64(ev.Hops)
		}
	case obs.KindNetDrop:
		t.netDrops++
	case obs.KindNetFault:
		t.faults++
	case obs.KindSelectDone:
		t.selects++
		if ev.Budget > 0 {
			t.qualified++
		}
	case obs.KindNetDown:
		t.downs[ev.Node] = append(t.downs[ev.Node], ev.TS)
	}
}

// verify returns every trace invariant violation, except probes that died
// with their holder (counted in lost), and every disagreement between the
// trace's counts and the registry's totals.
func (t *tracer) verify(tot obs.Counters) []string {
	var bad []string
	for _, v := range t.check.Finish() {
		if t.diedWithHolder(v) {
			t.lost++
			continue
		}
		bad = append(bad, v.String())
	}
	cmp := func(what string, reg, trace int64) {
		if reg != trace {
			bad = append(bad, fmt.Sprintf("%s: registry=%d trace=%d", what, reg, trace))
		}
	}
	cmp("probes sent", tot.ProbesSent, t.sent)
	cmp("probes dropped", tot.ProbesDropped, t.dropped)
	cmp("probes returned", tot.ProbesReturned, t.returned)
	cmp("probe budget spent", tot.BudgetSpent, t.budget)
	cmp("probe retransmits", tot.ProbesRetx, t.retx)
	cmp("dht hops", tot.DHTHops, t.dhtHops)
	cmp("messages dropped", tot.MsgsDrop, t.netDrops)
	cmp("faults injected", tot.Faults, t.faults)
	return bad
}

// diedWithHolder reports whether a violation is a probe that was never
// resolved because the peer it was sent to crashed after it was sent. A
// crashed peer's pending timers are dropped, so a probe it held (waiting on
// a next-hop lookup, say) leaves no termination record; obs.Checker excuses
// the same case for federation prepares but not for probes. Any other
// violation, or one whose holder never crashed, stands.
func (t *tracer) diedWithHolder(v obs.Violation) bool {
	var pid, req uint64
	var drops, copies int
	if v.Name != obs.VioProbeConservation {
		return false
	}
	n, _ := fmt.Sscanf(v.Detail, "pid=%d (req=%d) unresolved but %d of %d wire copies dropped", &pid, &req, &drops, &copies)
	if n != 4 || drops != 0 {
		return false
	}
	h, ok := t.holder[pid]
	if !ok {
		return false
	}
	for _, at := range t.downs[h.peer] {
		if at >= h.at {
			return true
		}
	}
	return false
}
