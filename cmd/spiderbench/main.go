// Command spiderbench regenerates the figures of the SpiderNet paper's
// evaluation (§6). Each figure prints as an aligned table with the same
// series the paper plots.
//
// Usage:
//
//	spiderbench -fig 8            # Figure 8 at laptop scale
//	spiderbench -fig 9 -paper     # Figure 9 at the paper's dimensions
//	spiderbench -fig 10           # wide-area setup time (live runtime)
//	spiderbench -fig 11           # delay vs probing budget
//	spiderbench -fig scale        # offered-load sweep, load-blind vs load-aware
//	spiderbench -fig stress       # adversarial workloads x composition algorithms
//	spiderbench -fig overhead     # BCP vs centralized overhead
//	spiderbench -fig federate     # cross-domain 2PC sweep, domains x gateways x faults
//	spiderbench -fig scale100k    # 100k-node/10k-peer capacity sweep (not part of "all")
//	spiderbench -fig scale1m      # 1M-node/100k-peer capacity sweep (not part of "all")
//	spiderbench -fig all
//	spiderbench -bench            # microbenchmarks -> BENCH_<timestamp>.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/simnet"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 8, 9, 10, 11, scale, stress, overhead, federate, scale100k, scale1m, all")
	paper := flag.Bool("paper", false, "use the paper's full dimensions (slow)")
	seed := flag.Int64("seed", 1, "simulation seed")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	bench := flag.Bool("bench", false, "run the microbenchmark suite and write BENCH_<timestamp>.json")
	benchDir := flag.String("benchdir", ".", "directory for the BENCH_<timestamp>.json output")
	traceFile := flag.String("trace", "", "write a deterministic JSONL event trace of the simulated figures to this file")
	stats := flag.Bool("stats", false, "print per-layer counter tables after the figures")
	faults := flag.String("faults", "", "fault spec layered onto figures 9 and 10, e.g. loss=0.05,jitter=20ms,partition=10s@30s")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for the independent cells of the simulated figures; 1 = serial. Output is byte-identical at any value")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		}
	}()

	var fspec *simnet.FaultSpec
	if *faults != "" {
		var err error
		fspec, err = simnet.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
	}

	if *bench {
		if err := runBench(*benchDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Figure 10 runs on the live goroutine runtime (livenet), outside the
	// virtual clock, so the deterministic tracer is wired into every other
	// figure, all of which run on the simulator.
	var (
		trace obs.Tracer
		tf    *obs.TraceFile
		reg   *obs.Registry
	)
	if *traceFile != "" {
		var err error
		tf, err = obs.CreateTrace(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		trace = tf
	}
	if *stats {
		reg = obs.NewRegistry()
	}

	writeCSV := func(name string, t *metrics.Table) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		}
	}

	run := func(name string, fn func()) {
		fmt.Fprintf(os.Stderr, "== %s (started %s)\n", name, time.Now().Format(time.Kitchen))
		start := time.Now()
		fn()
		fmt.Fprintf(os.Stderr, "== %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	ran := false

	if want("8") {
		ran = true
		run("Figure 8", func() {
			cfg := experiment.DefaultFig8Config()
			if *paper {
				cfg = experiment.PaperFig8Config()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Parallel = *parallel
			res := experiment.Fig8(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("fig8", res.Table)
		})
	}
	if want("9") {
		ran = true
		run("Figure 9", func() {
			cfg := experiment.DefaultFig9Config()
			if *paper {
				cfg = experiment.PaperFig9Config()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Faults = fspec
			cfg.Parallel = *parallel
			res := experiment.Fig9(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("fig9", res.Table)
			fmt.Printf("avg backups/session: %.2f  switchovers: %d  reactive: %d  unrecovered(with): %d  unrecovered(without): %d\n",
				res.AvgBackups, res.Switchovers, res.Reactives, res.DeadWithRecovery, res.DeadWithout)
		})
	}
	if want("10") {
		ran = true
		run("Figure 10", func() {
			cfg := experiment.DefaultFig10Config()
			if *paper {
				cfg = experiment.PaperFig10Config()
			}
			cfg.Seed = *seed
			if fspec != nil {
				cfg.Loss = fspec.Loss // live wire supports uniform loss only
			}
			res := experiment.Fig10(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("fig10", res.Table)
		})
	}
	if want("11") {
		ran = true
		run("Figure 11", func() {
			cfg := experiment.DefaultFig11Config()
			if *paper {
				cfg = experiment.PaperFig11Config()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Parallel = *parallel
			res := experiment.Fig11(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("fig11", res.Table)
		})
	}
	if want("scale") {
		ran = true
		run("Scale (offered load sweep)", func() {
			cfg := experiment.DefaultScaleConfig()
			if *paper {
				cfg = experiment.PaperScaleConfig()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Parallel = *parallel
			res := experiment.Scale(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("scale", res.Table)
		})
	}
	if want("stress") {
		ran = true
		run("Stress (adversarial workload sweep)", func() {
			cfg := experiment.DefaultStressConfig()
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Parallel = *parallel
			res := experiment.Stress(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("stress", res.Table)
		})
	}
	if want("overhead") {
		ran = true
		run("Overhead comparison", func() {
			cfg := experiment.DefaultOverheadConfig()
			if *paper {
				cfg = experiment.PaperOverheadConfig()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Parallel = *parallel
			res := experiment.Overhead(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("overhead", res.Table)
		})
	}
	if want("federate") {
		ran = true
		run("Federate (cross-domain 2PC sweep)", func() {
			cfg := experiment.DefaultFederateConfig()
			if *paper {
				cfg = experiment.PaperFederateConfig()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Counters = reg
			cfg.Parallel = *parallel
			res := experiment.Federate(cfg)
			res.Table.Render(os.Stdout)
			writeCSV("federate", res.Table)
		})
	}
	// The capacity sweep is explicit-only: it measures machine-dependent
	// wall-clock and heap cost, so folding it into "all" would make the
	// default run's duration depend on the host rather than the paper. Each
	// tier keeps its figure name and CSV file names; scale1m is the headline
	// run (1M IP nodes, a 100k-peer compact overlay under a bounded route
	// cache, and a 100k-peer sorted-ring discovery plane).
	if *fig == "scale100k" || *fig == "scale1m" {
		ran = true
		run(*fig+" (capacity sweep)", func() {
			cfg := experiment.DefaultScale100kConfig()
			if *fig == "scale1m" {
				cfg = experiment.DefaultScale1mConfig()
			}
			cfg.Seed = *seed
			cfg.Trace = trace
			cfg.Parallel = *parallel
			res := experiment.Capacity(cfg)
			res.TopoTable.Render(os.Stdout)
			res.DiscTable.Render(os.Stdout)
			writeCSV(*fig+"_topo", res.TopoTable)
			writeCSV(*fig+"_disc", res.DiscTable)
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q; want 8, 9, 10, 11, scale, stress, overhead, federate, scale100k, scale1m, or all\n", *fig)
		os.Exit(2)
	}
	if tf != nil {
		n := tf.Count()
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", n, *traceFile)
	}
	if reg != nil {
		reg.Table("per-layer counters (all nodes)").Render(os.Stdout)
		reg.PerNodeTable("busiest nodes", 10).Render(os.Stdout)
	}
	// With both -trace and -stats set, rebuild the span forest from the trace
	// just written and report where the setup time went.
	if tf != nil && reg != nil {
		b := span.NewBuilder()
		if err := obs.StreamTrace(*traceFile, func(ev obs.Event) error {
			b.Add(ev)
			return nil
		}); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		span.PhaseTable(b.Build(), "setup-latency phases (from trace)").Render(os.Stdout)
	}
}
