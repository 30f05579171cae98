package main

import (
	"strings"
	"testing"
	"time"
)

// testSizes shrink a run to one short round: a 5000-scenario faultload
// prefix (two cprof frames) and a 20-scenario reference sample per cell.
var testSizes = sizes{limit: 5000, refSample: 20, reps: 1, minPhase: 0}

func runSmall(t *testing.T, workload string, trace bool, f faults) *runResult {
	t.Helper()
	res, err := run(workloads[workload], config{
		seed:   3,
		trace:  trace,
		dir:    t.TempDir(),
		sizes:  testSizes,
		faults: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCleanRunsPassEveryCheck(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"typo-reload", false},
		{"typo-reload", true},
		{"dist-validate", true},
	} {
		res := runSmall(t, tc.workload, tc.trace, faults{})
		if res.failed != 0 || len(res.failures) != 0 {
			t.Errorf("%s trace=%v: %d of %d failed: %v", tc.workload, tc.trace, res.failed, res.attempted, res.failures)
		}
		if res.attempted != 5000*res.rounds {
			t.Errorf("%s trace=%v: attempted %d over %d rounds, want 5000 a round", tc.workload, tc.trace, res.attempted, res.rounds)
		}
		if tc.trace {
			for _, name := range []string{"core.exp_latency_samples", "plugins.gen_ns_per_scenario"} {
				if res.perLayer[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", tc.workload, name, res.perLayer[name].Value)
				}
			}
		}
	}
}

// TestChecksCatchFaults shows that each injected defect makes the run
// report failed operations, through the check built to catch it.
func TestChecksCatchFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
		f     faults
		check string
	}{
		{"flipped outcome", false, faults{flipOutcome: true}, "profile-vs-sink"},
		{"flipped outcome vs engine tally", false, faults{flipOutcome: true}, "fold-consistency"},
		{"dropped sequence", false, faults{dropSeq: true}, "completeness"},
		{"swapped records", false, faults{swapRecords: true}, "order"},
		{"torn cprof tail", false, faults{tornTail: true}, "completeness"},
		{"traced digest differs", true, faults{failProbe: 100}, "trace-digest"},
	} {
		res := runSmall(t, "typo-reload", tc.trace, tc.f)
		if res.failed == 0 {
			t.Errorf("%s: run reports no failed operations", tc.name)
			continue
		}
		found := false
		for _, f := range res.failures {
			if strings.Contains(f, ": "+tc.check+" (") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: check %q did not fire; failures: %v", tc.name, tc.check, res.failures)
		}
	}
}

func TestRunStopsAfterItsTime(t *testing.T) {
	start := time.Now()
	res, err := run(workloads["typo-reload"], config{seed: 1, seconds: 2 * time.Second, dir: t.TempDir(), sizes: testSizes})
	if err != nil {
		t.Fatal(err)
	}
	if res.rounds < 2 {
		t.Errorf("%d rounds in 2s of short rounds, want at least 2", res.rounds)
	}
	if el := time.Since(start); el > 4*time.Second {
		t.Errorf("run took %v for a 2s budget", el)
	}
}
