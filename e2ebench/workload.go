package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/workload"
)

// spec is one named workload: a deployment size, a request mix, and the
// run's churn and session lifetime. The request fields mirror spidersim's
// flags so that a workload can be cross-checked against that command.
type spec struct {
	name string

	ipNodes, peers, functions int
	// worlds is how many independently seeded deployments one run pools,
	// each with requests requests over duration of virtual time. Pooling
	// averages out how much work one random topology happens to cause.
	worlds, requests           int
	budget, minFuncs, maxFuncs int
	dag, commute               float64
	duration                   time.Duration
	churn                      float64 // fraction of peers failing per minute
	recovery                   bool
	// teardown, when positive, tears each composed session down this long
	// after it was set up (spidersim keeps every session).
	teardown time.Duration
}

// specs are the benchmark's workloads. Arrivals are open-loop in virtual
// time: uniform over the first 80% of the duration, independent of
// completions. NOTES.md gives the layer each workload exercises and the one
// it bypasses.
var specs = []spec{
	// The ROADMAP's 10k-node world: the only workload whose set-up takes
	// seconds and whose peer count exceeds the 512-entry route cache.
	{
		name:    "compose1k",
		ipNodes: 10000, peers: 1000, functions: 40, worlds: 4, requests: 200,
		budget: 20, minFuncs: 2, maxFuncs: 4, dag: 0.2, commute: 0.2,
		duration: 5 * time.Minute, recovery: true,
	},
	// Failures drive recovery: monitoring, detection, switchover and
	// reactive re-composition. Routes fit the cache.
	{
		name:    "churn200",
		ipNodes: 2000, peers: 200, functions: 40, worlds: 5, requests: 500,
		budget: 20, minFuncs: 2, maxFuncs: 4, dag: 0.2, commute: 0.2,
		duration: 15 * time.Minute, churn: 0.02, recovery: true,
	},
	// Wide probing over large DAGs with recovery off. Sessions are torn
	// down after a minute so capacity stays free and the run measures BCP,
	// not exhaustion.
	{
		name:    "probeheavy",
		ipNodes: 2000, peers: 200, functions: 40, worlds: 4, requests: 1200,
		budget: 64, minFuncs: 3, maxFuncs: 6, dag: 0.5, commute: 0.5,
		duration: 4 * time.Minute, teardown: 60 * time.Second,
	},
}

// worldSeed derives the seed of world k of a run from the run's seed. The
// worlds of distinct non-negative run seeds never overlap, and none is 0,
// which cluster.New would read as 1.
func (s spec) worldSeed(seed int64, k int) int64 { return seed*int64(s.worlds) + int64(k) + 1 }

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// outcome is everything the simulation decides: it depends only on the
// spec and the seed, so every run of one workload and seed must produce an
// identical outcome.
type outcome struct {
	Scheduled, Attempted, Completed, Ok int
	// SetupMs holds the virtual setup time of every successful composition
	// in completion order.
	SetupMs []float64
	Msgs    int64
	Bytes   int64
	Dropped int64
	ByType  map[string]int64
	Rec     recovery.Stats
}

// Hung counts compositions that never called back.
func (o *outcome) Hung() int { return o.Attempted - o.Completed }

// fingerprint renders every decided value (fmt sorts map keys and prints
// floats in their shortest exact form), so two outcomes compare equal
// exactly when their fingerprints do.
func (o *outcome) fingerprint() string { return fmt.Sprintf("%+v", *o) }

// add pools another world's outcome into o.
func (o *outcome) add(w *outcome) {
	o.Scheduled += w.Scheduled
	o.Attempted += w.Attempted
	o.Completed += w.Completed
	o.Ok += w.Ok
	o.SetupMs = append(o.SetupMs, w.SetupMs...)
	o.Msgs += w.Msgs
	o.Rec.Dead += w.Rec.Dead
}

// msgsWithPrefix sums the messages of every type in one protocol layer.
func (o *outcome) msgsWithPrefix(prefix string) int64 {
	var n int64
	for k, v := range o.ByType {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// host is what one cycle measured on the host clock and heap.
type host struct {
	setup, run time.Duration
	heapLive   uint64 // bytes live after a forced GC, deployment reachable
	gcCycles   uint32 // GC cycles during the run
	allocBytes uint64 // bytes allocated during the run
}

// hooks lets the traced cycle observe the run without changing it.
type hooks struct {
	trace    obs.Tracer
	reg      *obs.Registry
	built    func(*cluster.Cluster) // called once the deployment is up
	startRun func()                 // called right before Sim.Run, after inputs exist
	stopRun  func()                 // called right after Sim.Run
	// results receives each composition's result in completion order.
	results func(bcp.Result)
}

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

// clusterOptions is the deployment spidersim builds for the same flags.
func (s spec) clusterOptions(seed int64, h hooks) cluster.Options {
	o := cluster.Options{
		Seed:    seed,
		IPNodes: s.ipNodes,
		Peers:   s.peers,
		Catalog: catalog(s.functions),
		BCP:     bcp.DefaultConfig(),
		Trace:   h.trace,
		Obs:     h.reg,
	}
	if s.recovery {
		rc := recovery.DefaultConfig()
		o.Recovery = &rc
	}
	return o
}

// cycle builds a fresh deployment, schedules the workload's requests and
// churn ticks, and runs the simulation. The setup clock covers cluster.New
// only; the run clock covers Sim.Run only.
func (s spec) cycle(seed int64, h hooks) (*outcome, host) {
	var hm host
	runtime.GC()
	t0 := time.Now()
	c := cluster.New(s.clusterOptions(seed, h))
	hm.setup = time.Since(t0)
	if h.built != nil {
		h.built(c)
	}

	out := &outcome{Scheduled: s.requests}
	gen := workload.NewGenerator(workload.Config{
		Catalog:     catalog(s.functions),
		Peers:       s.peers,
		MinFuncs:    s.minFuncs,
		MaxFuncs:    s.maxFuncs,
		Budget:      s.budget,
		DAGProb:     s.dag,
		CommuteProb: s.commute,
		DelayReqMin: 500,
		DelayReqMax: 2000,
	}, c.Rng)
	for i := 0; i < s.requests; i++ {
		// Request first, then arrival, both on the cluster's generator: the
		// draw order spidersim uses.
		req := gen.Next()
		at := time.Duration(float64(s.duration) * c.Rng.Float64() * 0.8)
		c.Sim.Schedule(at-c.Sim.Now(), func() { s.arrive(c, req, at, out, h) })
	}
	if s.churn > 0 {
		for m := time.Minute; m < s.duration; m += time.Minute {
			c.Sim.Schedule(m, func() {
				for _, id := range c.FailFraction(s.churn) {
					id := id
					c.Sim.Schedule(2*time.Minute, func() { c.Net.Recover(id) })
				}
			})
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if h.startRun != nil {
		h.startRun()
	}
	t1 := time.Now()
	c.Sim.Run(s.duration)
	hm.run = time.Since(t1)
	if h.stopRun != nil {
		h.stopRun()
	}
	runtime.ReadMemStats(&ms1)
	hm.gcCycles = ms1.NumGC - ms0.NumGC
	hm.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	st := c.Net.Stats()
	out.Msgs, out.Bytes, out.Dropped, out.ByType = st.MessagesSent, st.BytesSent, st.Dropped, st.ByType
	for _, p := range c.Peers {
		if p.Recovery == nil {
			continue
		}
		r := p.Recovery.Stats()
		out.Rec.FailuresDetected += r.FailuresDetected
		out.Rec.Switchovers += r.Switchovers
		out.Rec.Reactives += r.Reactives
		out.Rec.Dead += r.Dead
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	hm.heapLive = ms2.HeapAlloc
	runtime.KeepAlive(c)
	return out, hm
}

// arrive starts one request at its source, as spidersim does. A request
// due before the deployment finished settling, or whose source has
// crashed, composes nothing and is not counted as attempted.
func (s spec) arrive(c *cluster.Cluster, req *service.Request, at time.Duration, out *outcome, h hooks) {
	if at < c.Sim.Now() || !c.Net.Alive(req.Source) {
		return
	}
	out.Attempted++
	p := c.Peers[int(req.Source)]
	p.Engine.Compose(req, func(res bcp.Result) {
		out.Completed++
		if h.results != nil {
			h.results(res)
		}
		if !res.Ok {
			return
		}
		out.Ok++
		out.SetupMs = append(out.SetupMs, float64(res.SetupTime)/float64(time.Millisecond))
		if p.Recovery != nil {
			p.Recovery.Establish(req, res)
		}
		if s.teardown > 0 {
			best := res.Best
			c.Sim.Schedule(s.teardown, func() { p.Engine.Teardown(best) })
		}
	})
}
