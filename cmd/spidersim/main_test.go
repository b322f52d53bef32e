package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// uncatalogued names three functions outside the fn0..fnN catalogue, so
// -spec must join providers for all of them before composing.
const uncatalogued = `
<composite name="customized-stream">
  <function id="down" name="downscale"/>
  <function id="tick" name="stock-ticker"/>
  <function id="rq"   name="requant"/>
  <dependency from="down" to="tick"/>
  <dependency from="tick" to="rq"/>
  <commutation a="tick" b="rq"/>
  <qos delayMs="1500" lossRate="0.01"/>
  <resources cpu="1" memoryMB="10" bandwidthKbps="100"/>
  <failure bound="0.05"/>
  <probing budget="24"/>
</composite>`

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("spidersim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestSpecDeterministic composes a spec whose functions are all absent from
// the catalogue: the providers must join in the spec's function order, so
// the same seed prints the same composition every time.
func TestSpecDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.xml")
	if err := os.WriteFile(path, []byte(uncatalogued), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", path, "-seed", "1", "-ipnodes", "300", "-peers", "30", "-functions", "6"}
	first := runOut(t, args...)
	if !strings.HasPrefix(first, "composed: ") {
		t.Fatalf("no composition:\n%s", first)
	}
	// Peers 30..38 joined three per function, in spec order.
	for _, want := range []string{`downscale→p3[0-2]/`, `stock-ticker→p3[3-5]/`, `requant→p3[6-8]/`} {
		if !regexp.MustCompile(want).MatchString(first) {
			t.Errorf("composition does not match %s:\n%s", want, first)
		}
	}
	for i := 1; i < 8; i++ {
		if got := runOut(t, args...); got != first {
			t.Fatalf("run %d differs:\n%s\nfirst run:\n%s", i, got, first)
		}
	}
}

// TestCheckTraceFiles checks a small run's invariants live while writing its
// trace, then re-checks and summarizes the trace file.
func TestCheckTraceFiles(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl.gz")
	out := runOut(t, "-seed", "2", "-ipnodes", "300", "-peers", "30", "-functions", "8",
		"-requests", "12", "-duration", "90s", "-churn", "0.05", "-stats", "-check", "-trace", trace)
	for _, want := range []string{`success ratio`, `hung compositions +0\n`, `per-layer counters`, `trace summary`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("run output lacks %s:\n%s", want, out)
		}
	}
	// Two files exercise the concurrent checker.
	if out := runOut(t, "-check", trace, trace); out != "" {
		t.Errorf("-check on files wrote to stdout:\n%s", out)
	}
	if out := runOut(t, "-summarize", trace); !strings.Contains(out, "per-request breakdown") {
		t.Errorf("-summarize output lacks the request table:\n%s", out)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", trace, bad}, new(bytes.Buffer)); err == nil {
		t.Error("-check accepted a malformed trace file")
	}
}

// TestFlagErrors rejects malformed specs before building anything.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "loss=2"},
		{"-scenario", "zipf=x"},
		{"-domains", "domains=0"},
		{"-domains", "domains=2", "-shards", "4"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("spidersim %s: no error", strings.Join(args, " "))
		}
	}
}

// churnDupArgs is a small churned world on a wire that loses and duplicates
// messages: recovery probes, pongs and switchover setups all run under
// duplication, so every probe copy must carry its own progress.
var churnDupArgs = []string{"-seed", "3", "-ipnodes", "400", "-peers", "60", "-requests", "100",
	"-duration", "3m", "-churn", "0.02", "-faults", "dup=0.05,loss=0.1,seed=3", "-check"}

// churnDupTable is churnDupArgs' report, recorded before the recovery
// monitor shared one probe header between duplicated probe copies.
const churnDupTable = `# spidersim: 60 peers on 400 IP nodes, 100 requests, budget 20
metric                value
success ratio         0.667
hung compositions     0
avg setup time        3828.3ms
avg discovery time    920.3ms
messages sent         47325
bytes sent            3589968
probes sent           3164
failures detected     79
switchovers           58
reactive recoveries   21
unrecovered failures  7
`

// TestChurnDupDeterministic runs the churned, duplicating world twice with
// -check: both runs must pass the invariant checker, write byte-identical
// traces, and print the recorded report.
func TestChurnDupDeterministic(t *testing.T) {
	dir := t.TempDir()
	var traces [2][]byte
	for i := range traces {
		path := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
		out := runOut(t, append(churnDupArgs, "-trace", path)...)
		if out != churnDupTable {
			t.Fatalf("run %d report:\n%s\nwant:\n%s", i, out, churnDupTable)
		}
		var err error
		if traces[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatal("two runs of the same seed and fault spec wrote different traces")
	}
	if !bytes.Contains(traces[0], []byte(`"rec.probe"`)) || !bytes.Contains(traces[0], []byte(`"dup"`)) {
		t.Fatal("trace lacks recovery probes or duplicated messages")
	}
}

// TestProfiles writes CPU and heap profiles and leaves the report unchanged.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-seed", "2", "-ipnodes", "300", "-peers", "30", "-functions", "8",
		"-requests", "12", "-duration", "90s", "-churn", "0.05"}
	plain := runOut(t, args...)
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiled := runOut(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if profiled != plain {
		t.Errorf("profiling changed the report:\n%s\nwithout profiling:\n%s", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil {
			t.Error(err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
