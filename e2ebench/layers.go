package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/topology"
)

// minCoverage is the share of the process CPU over the traced Sim.Run that
// the CPU profile must account for.
const minCoverage = 0.8

// perLayer runs one untraced and one traced cycle of the workload, replays
// the deployment's topology build, and reports the per-layer metrics. The
// traced cycle must decide the same outcome as the untraced one, pass the
// streaming trace invariant checker, and agree with the counter registry.
func perLayer(s spec, seed int64) (result, provenance, error) {
	res := result{Correct: true}
	var prov provenance
	fail := func(format string, a ...any) (result, provenance, error) {
		return res, prov, fmt.Errorf("%s seed %d: %s", s.name, seed, fmt.Sprintf(format, a...))
	}

	var built [4]int
	plain, plainH := s.cycle(seed, hooks{built: func(c *cluster.Cluster) {
		built = [4]int{c.IP.N(), c.IP.M(), c.Overlay.N(), c.Overlay.NumLinks()}
	}})

	// Split set-up into topology generation, overlay build and the rest of
	// the stack: replay the topology half of cluster.New, then time an
	// untraced cluster.New right after it, in pairs for up to ten seconds.
	// The rest of the stack is each pair's difference, so slow phases of the
	// host hit both halves of a pair alike.
	var gens, ovs, stacks []float64
	for start := time.Now(); len(gens) == 0 || (len(gens) < 5 && time.Since(start) < 10*time.Second); {
		gen, ov, got := replayTopology(s, seed)
		if got != built {
			return fail("topology replay built %v (nodes, links, peers, overlay links), cluster has %v", got, built)
		}
		runtime.GC()
		t0 := time.Now()
		cluster.New(s.clusterOptions(seed, hooks{}))
		setup := time.Since(t0)
		gens, ovs = append(gens, gen.Seconds()), append(ovs, ov.Seconds())
		stacks = append(stacks, (setup - gen - ov).Seconds())
	}

	tr := newTracer()
	reg := obs.NewRegistry()
	var (
		prof       bytes.Buffer
		ru0, ru1   syscall.Rusage
		profErr    error
		setupByReq = map[uint64]time.Duration{}
	)
	traced, th := s.cycle(seed, hooks{
		trace: tr,
		reg:   reg,
		startRun: func() {
			profErr = pprof.StartCPUProfile(&prof)
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // RUSAGE_SELF cannot fail
		},
		stopRun: func() {
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
			pprof.StopCPUProfile()
		},
		results: func(r bcp.Result) {
			if r.Ok {
				setupByReq[r.ReqID] = r.SetupTime
			}
		},
	})
	if profErr != nil {
		return fail("cpu profile: %v", profErr)
	}
	if got, want := traced.fingerprint(), plain.fingerprint(); got != want {
		return fail("tracing changed the simulation outcome")
	}
	if bad := tr.verify(reg.Totals()); len(bad) > 0 {
		return fail("%d trace check failure(s), first: %s", len(bad), bad[0])
	}

	// CPU per layer; the buckets must add up to the profile exactly and the
	// profile must account for most of the process CPU.
	by, total, err := attribute(prof.Bytes())
	if err != nil {
		return fail("%v", err)
	}
	var sum int64
	for _, l := range layers {
		sum += by[l]
	}
	if sum != total || len(by) > len(layers) {
		return fail("cpu attribution sums to %dns over %d buckets, profile total %dns", sum, len(by), total)
	}
	rusage := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	cov := float64(total) / float64(rusage)
	if cov < minCoverage {
		return fail("cpu profile covers %.2f of the %v of process CPU over the traced run, want >= %.2f",
			cov, rusage, minCoverage)
	}

	// Span phases of every successful setup; they must partition it.
	forest := tr.spans.Build()
	var disc, probe, collect, commit []float64
	var bad []string
	forest.All(func(t *span.Tree) {
		if !t.Ok {
			return
		}
		ph := t.Phases
		if ph.Wait != 0 || ph.Named() != t.Wall {
			bad = append(bad, fmt.Sprintf("req %d: phases %+v do not partition wall %v", t.Req, ph, t.Wall))
		}
		setup, ours := setupByReq[t.Req]
		if !ours {
			return // a reactive re-composition started by recovery
		}
		if setup != t.Wall {
			bad = append(bad, fmt.Sprintf("req %d: span wall %v, engine setup %v", t.Req, t.Wall, setup))
		}
		disc = append(disc, ms(ph.Discovery))
		probe = append(probe, ms(ph.Probe))
		collect = append(collect, ms(ph.Collect))
		commit = append(commit, ms(ph.Commit))
	})
	if len(bad) > 0 {
		return fail("%d setups not partitioned by their span phases, first: %s", len(bad), bad[0])
	}
	if len(disc) != traced.Ok {
		return fail("span trees hold %d successful setups, the run had %d", len(disc), traced.Ok)
	}
	if len(forest.Orphans) > 0 {
		o := forest.Orphans[0]
		return fail("%d trace events not attributable to a request, first: %s (%s)", len(forest.Orphans), o.Ev.Kind, o.Reason)
	}

	m := map[string]metric{
		"topology.generate_s": {median(gens), "s"},
		"topology.overlay_s":  {median(ovs), "s"},
		"cluster.stack_s":     {median(stacks), "s"},

		"simnet.msgs":     {float64(plain.Msgs), "count"},
		"simnet.bytes":    {float64(plain.Bytes), "B"},
		"simnet.dropped":  {float64(plain.Dropped), "count"},
		"simnet.msgs.bcp": {float64(plain.msgsWithPrefix("bcp.")), "count"},
		"simnet.msgs.dht": {float64(plain.msgsWithPrefix("dht.")), "count"},
		"simnet.msgs.rec": {float64(plain.msgsWithPrefix("rec.")), "count"},

		"recovery.detected":    {float64(plain.Rec.FailuresDetected), "count"},
		"recovery.switchovers": {float64(plain.Rec.Switchovers), "count"},
		"recovery.reactives":   {float64(plain.Rec.Reactives), "count"},
		"recovery.dead":        {float64(plain.Rec.Dead), "count"},

		"bcp.probes":           {float64(tr.sent), "count"},
		"bcp.probe_yield":      {ratio(tr.returned, tr.sent), "ratio"},
		"bcp.budget_spent":     {float64(tr.budget), "count"},
		"bcp.qualified_ratio":  {ratio(tr.qualified, tr.selects), "ratio"},
		"obs.lost_with_holder": {float64(tr.lost), "count"},
		"bcp.hung":             {float64(plain.Hung()), "count"},
		"dht.hops_per_lookup":  {ratio(tr.lookupHops, tr.lookups), "ratio"},

		"gc.cycles":               {float64(plainH.gcCycles), "count"},
		"gc.alloc_kb_per_request": {float64(plainH.allocBytes) / 1e3 / float64(plain.Scheduled), "KB"},
		"span.discovery_p50_ms":   {p50(disc), "ms"},
		"span.probe_p50_ms":       {p50(probe), "ms"},
		"span.collect_p50_ms":     {p50(collect), "ms"},
		"span.commit_p50_ms":      {p50(commit), "ms"},
		"obs.overhead_ratio":      {th.run.Seconds() / plainH.run.Seconds(), "ratio"},
	}
	for _, l := range layers {
		m["cpu."+l+"_s"] = metric{float64(by[l]) / 1e9, "s"}
	}
	res.Metrics = m
	res.Attempted = plain.Attempted + traced.Attempted
	res.Failed = plain.Hung() + traced.Hung()
	prov = provenance{
		Worlds: 1, Cycles: 2, Requests: plain.Scheduled, Attempted: plain.Attempted,
		Hung: plain.Hung(), Dead: plain.Rec.Dead,
	}
	logShares(s.name, by, total, cov)
	return res, prov, nil
}

// replayTopology runs the topology half of cluster.New: the same
// generators, fed a fresh source with the deployment's seed in the same
// order. It returns both build times and the node, link, peer and overlay
// link counts.
func replayTopology(s spec, seed int64) (gen, overlay time.Duration, counts [4]int) {
	runtime.GC()
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	ip := topology.GeneratePowerLaw(s.ipNodes, 2, 2, 30, rng)
	gen = time.Since(t0)
	t1 := time.Now()
	ov := topology.BuildOverlay(ip, topology.OverlayConfig{
		NumPeers: s.peers, Degree: 4, CapMin: 2000, CapMax: 10000,
	}, rng)
	overlay = time.Since(t1)
	return gen, overlay, [4]int{ip.N(), ip.M(), ov.N(), ov.NumLinks()}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(50, len(s))]
}

// logShares prints the CPU split as shares of the profile, largest first.
func logShares(name string, by map[string]int64, total int64, cov float64) {
	ls := append([]string(nil), layers...)
	sort.SliceStable(ls, func(i, j int) bool { return by[ls[i]] > by[ls[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s cpu %.2fs (%.0f%% of process cpu):", name, float64(total)/1e9, 100*cov)
	for _, l := range ls {
		fmt.Fprintf(&b, " %s=%.1f%%", l, 100*ratio(by[l], total))
	}
	fmt.Println(b.String())
}
