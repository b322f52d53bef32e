// Package workload generates the composition request streams the
// experiments replay: random function graphs drawn from the catalogue
// (linear chains, diamond DAGs, optional commutation links), QoS/resource
// requirements, and endpoints, with sequential globally unique request IDs.
package workload

import (
	"math/rand"
	"time"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// Config shapes generated requests. Zero fields take the defaults
// documented on each field.
type Config struct {
	Catalog []string // function names to draw from (required)
	Peers   int      // number of peers to draw endpoints from (required)

	MinFuncs int // functions per request, inclusive range (default 2)
	MaxFuncs int // (default 4)

	Budget int // probing budget β (default 16)

	// DelayReqMin/Max bound the sampled end-to-end delay requirement in ms
	// (default 800..3000). Loss is left unconstrained.
	DelayReqMin, DelayReqMax float64
	// BandwidthMin/Max bound the sampled bandwidth requirement in kbps
	// (default 50..300).
	BandwidthMin, BandwidthMax float64
	// Res is the per-component requirement (default cpu=1, mem=10).
	Res qos.Resources
	// FailReq is the required failure probability (default 0.05).
	FailReq float64

	// DAGProb is the probability a request uses a diamond DAG instead of a
	// linear chain (needs >= 4 functions; default 0).
	DAGProb float64
	// CommuteProb is the probability a linear request carries one
	// commutation link between two adjacent middle functions (default 0).
	CommuteProb float64

	// Popularity, when non-nil, weights function choice per catalogue index
	// (weights need not be normalized; they must be non-negative and one per
	// catalogue entry). Nil samples functions uniformly.
	Popularity []float64
	// Scenario, when non-nil, layers the time-varying stress shaping on top
	// of Popularity: Zipf popularity (which then overrides Popularity) and
	// flash-crowd boosts evaluated at the time passed to NextAt. Diurnal
	// and churn keys are consumed by the experiment harness, not here.
	Scenario *Scenario
}

func (c Config) withDefaults() Config {
	if c.MinFuncs == 0 {
		c.MinFuncs = 2
	}
	if c.MaxFuncs == 0 {
		c.MaxFuncs = 4
	}
	if c.Budget == 0 {
		c.Budget = 16
	}
	if c.DelayReqMax == 0 {
		c.DelayReqMin, c.DelayReqMax = 800, 3000
	}
	if c.BandwidthMax == 0 {
		c.BandwidthMin, c.BandwidthMax = 50, 300
	}
	if c.Res == (qos.Resources{}) {
		c.Res[qos.CPU] = 1
		c.Res[qos.Memory] = 10
	}
	if c.FailReq == 0 {
		c.FailReq = 0.05
	}
	return c
}

// Generator produces a deterministic stream of requests for a given seed.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	nextID uint64
}

// maxID keeps workload request IDs below the recovery package's reattempt
// namespace (IDs >= 2^40 are reserved for re-compositions).
const maxID = uint64(1) << 40

// NewGenerator returns a generator over the given catalogue and peer count.
func NewGenerator(cfg Config, rng *rand.Rand) *Generator {
	return &Generator{cfg: cfg.withDefaults(), rng: rng}
}

// Next returns the next random request. Source and destination are distinct
// random peers; functions are distinct random catalogue entries, weighted by
// the configured popularity distribution (uniform when none). Equivalent to
// NextAt(0); scenario-driven callers should pass the arrival time so flash
// windows shape popularity.
func (g *Generator) Next() *service.Request { return g.NextAt(0) }

// NextAt returns the next random request as of simulated time at: function
// popularity reflects the scenario's state (Zipf curve plus any flash crowd
// active at that instant). With no scenario and no popularity configured it
// is byte-identical to the pre-scenario generator.
func (g *Generator) NextAt(at time.Duration) *service.Request {
	c := g.cfg
	g.nextID++
	if g.nextID >= maxID {
		g.nextID = 1
	}
	nf := c.MinFuncs + g.rng.Intn(c.MaxFuncs-c.MinFuncs+1)
	if nf > len(c.Catalog) {
		nf = len(c.Catalog)
	}
	fns := g.pickFunctions(nf, at)

	var fg *fgraph.Graph
	switch {
	case nf >= 4 && g.rng.Float64() < c.DAGProb:
		fg = g.diamond(fns)
	default:
		fg = g.linear(fns)
	}

	src := p2p.NodeID(g.rng.Intn(c.Peers))
	dst := p2p.NodeID(g.rng.Intn(c.Peers))
	for dst == src {
		dst = p2p.NodeID(g.rng.Intn(c.Peers))
	}

	q := qos.Unbounded()
	q[qos.Delay] = c.DelayReqMin + g.rng.Float64()*(c.DelayReqMax-c.DelayReqMin)

	return &service.Request{
		ID:        g.nextID,
		FGraph:    fg,
		QoSReq:    q,
		Res:       c.Res,
		Bandwidth: c.BandwidthMin + g.rng.Float64()*(c.BandwidthMax-c.BandwidthMin),
		FailReq:   c.FailReq,
		Source:    src,
		Dest:      dst,
		Budget:    c.Budget,
	}
}

// pickFunctions draws n distinct catalogue functions as of time at. Every
// function choice routes through the one weighted sampler: the scenario's
// time-varying weights when a scenario is set, the static Popularity
// distribution otherwise, and the uniform draw when neither is configured.
// (An earlier version ignored Popularity entirely and always sampled
// uniformly; the regression test pins the weighted path.)
func (g *Generator) pickFunctions(n int, at time.Duration) []string {
	w := g.cfg.Popularity
	if g.cfg.Scenario != nil {
		if sw := g.cfg.Scenario.WeightsAt(at, g.cfg.Catalog); sw != nil {
			w = sw
		}
	}
	idx := weightedDistinct(g.rng, w, len(g.cfg.Catalog), n)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = g.cfg.Catalog[j]
	}
	return out
}

func (g *Generator) linear(fns []string) *fgraph.Graph {
	b := fgraph.NewBuilder()
	for i, f := range fns {
		b.AddFunction(f)
		if i > 0 {
			b.AddDependency(i-1, i)
		}
	}
	// Optionally one commutation link between adjacent middle functions.
	if len(fns) >= 3 && g.rng.Float64() < g.cfg.CommuteProb {
		i := 1 + g.rng.Intn(len(fns)-2)
		b.AddCommutation(i, i+1)
	}
	fg, err := b.Build()
	if err != nil {
		panic("workload: linear build failed: " + err.Error())
	}
	return fg
}

// diamond builds fns[0] -> {fns[1], fns[2]} -> fns[3] -> ... (remaining
// functions chained after the join).
func (g *Generator) diamond(fns []string) *fgraph.Graph {
	b := fgraph.NewBuilder()
	for _, f := range fns {
		b.AddFunction(f)
	}
	b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
	for i := 4; i < len(fns); i++ {
		b.AddDependency(i-1, i)
	}
	fg, err := b.Build()
	if err != nil {
		panic("workload: diamond build failed: " + err.Error())
	}
	return fg
}
