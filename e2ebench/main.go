// Command e2ebench is the repository's end-to-end benchmark. It drives the
// simulated SpiderNet stack in-process through its public constructors
// (cluster.New, workload.Generator, bcp.Engine.Compose/Teardown,
// recovery.Manager.Establish, simnet.Sim.Run, cluster.FailFraction) on one
// named workload, checks the outputs, and prints one JSON result line.
//
//	e2ebench -workload churn200 -seed 1 -seconds 25 -trace 0
//
// A run pools several seeded deployments ("worlds"). With -trace 0 it runs
// a {build deployment, run workload} cycle for each world, then repeats
// worlds until the given host seconds have passed, and reports the
// end-to-end metrics. With -trace 1 it runs the first world once untraced
// and once traced and reports the per-layer metrics: CPU per package from a
// profile of the traced Sim.Run, protocol counts, span phases, GC and the
// set-up split.
//
// Every cycle of one world must decide exactly the same simulation
// outcome; any difference, any trace invariant violation, any mismatch
// against spidersim, or a CPU attribution that does not add up makes the
// run exit non-zero without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run: compose1k, churn200 or probeheavy")
		seed      = flag.Int64("seed", 1, "seed for the deployment and every request and churn tick")
		seconds   = flag.Float64("seconds", 25, "host seconds to keep measuring")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spidersim = flag.String("spidersim", "", "spidersim binary to cross-check the workloads against (empty skips)")
		rev       = flag.String("rev", "", "source revision to record")
	)
	flag.Parse()
	s, ok := findSpec(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seed < 0 {
		return fmt.Errorf("seed must not be negative")
	}

	// The cross-check and the traced run use the run's first world.
	world0 := s.worldSeed(*seed, 0)
	if *spidersim != "" {
		if err := crossCheck(*spidersim, s, world0); err != nil {
			return err
		}
	}

	var res result
	var prov provenance
	var err error
	switch *traced {
	case 0:
		res, prov, err = endToEnd(s, *seed, time.Duration(*seconds*float64(time.Second)))
	case 1:
		res, prov, err = perLayer(s, world0)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	prov.Workload, prov.Seed, prov.Rev = s.name, *seed, *rev
	prov.GOMAXPROCS, prov.NumCPU, prov.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(pj))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}
