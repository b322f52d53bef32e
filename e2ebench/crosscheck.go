package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/bcp"
)

// small shrinks a workload to a size that runs in well under a second,
// keeping its request mix, churn and recovery settings.
func (s spec) small() spec {
	s.ipNodes, s.peers, s.requests = 600, 60, 60
	s.duration = 4 * time.Minute
	return s
}

// crossCheck runs the workload's own code at a small size and spidersim with
// the same flags and seed, and requires both to report the same success
// ratio, hung count, messages, probes and unrecovered failures. It pins the
// draw order of requests, arrivals and churn victims to spidersim's.
// Workloads spidersim cannot express (session teardown, recovery off) are
// skipped.
func crossCheck(bin string, s spec, seed int64) error {
	if s.teardown > 0 || !s.recovery {
		return nil
	}
	sm := s.small()
	out, _ := sm.cycle(seed, hooks{})
	completedOk := 0.0
	if out.Completed > 0 {
		completedOk = float64(out.Ok) / float64(out.Completed)
	}
	want := [][2]string{
		{"success ratio", fmt.Sprintf("%.3f", completedOk)},
		{"hung compositions", strconv.Itoa(out.Hung())},
		{"messages sent", strconv.FormatInt(out.Msgs, 10)},
		{"probes sent", strconv.FormatInt(out.ByType[bcp.MsgProbe], 10)},
		{"unrecovered failures", strconv.Itoa(out.Rec.Dead)},
	}
	args := []string{
		"-seed", strconv.FormatInt(seed, 10),
		"-ipnodes", strconv.Itoa(sm.ipNodes),
		"-peers", strconv.Itoa(sm.peers),
		"-functions", strconv.Itoa(sm.functions),
		"-requests", strconv.Itoa(sm.requests),
		"-budget", strconv.Itoa(sm.budget),
		"-minfuncs", strconv.Itoa(sm.minFuncs),
		"-maxfuncs", strconv.Itoa(sm.maxFuncs),
		"-dag", strconv.FormatFloat(sm.dag, 'g', -1, 64),
		"-commute", strconv.FormatFloat(sm.commute, 'g', -1, 64),
		"-churn", strconv.FormatFloat(sm.churn, 'g', -1, 64),
		"-duration", sm.duration.String(),
	}
	raw, err := exec.Command(bin, args...).Output()
	if err != nil {
		return fmt.Errorf("cross-check: spidersim %s: %w", strings.Join(args, " "), err)
	}
	got := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		for _, w := range want {
			if v, ok := strings.CutPrefix(sc.Text(), w[0]); ok {
				got[w[0]] = strings.TrimSpace(v)
			}
		}
	}
	for _, w := range want {
		if got[w[0]] != w[1] {
			return fmt.Errorf("cross-check: %s seed %d at %d peers: %s is %q in spidersim, %q in the benchmark",
				s.name, seed, sm.peers, w[0], got[w[0]], w[1])
		}
	}
	return nil
}
