package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range allWorkloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !equalStrings(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func testEnv(t *testing.T, seconds int) *env {
	t.Helper()
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, seconds: seconds, workers: maxWorkers, workdir: t.TempDir(), refs: r, log: t.Logf}
}

// checkMetrics requires exactly the declared names and units, with
// non-zero values.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, name, m.Unit, unit)
		case m.Value == 0:
			t.Errorf("%s: metric %s is 0", what, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks the metric names, units, and that every fingerprint matched.
func TestShortRuns(t *testing.T) {
	e2e, layer := declared(t)
	for i := range allWorkloads {
		wl := &allWorkloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := runEndToEnd(wl, testEnv(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("end-to-end: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, "end-to-end", res.Metrics, e2e)

			res, err = runTraced(wl, testEnv(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "traced", res.Metrics, layer)
		})
	}
}

// TestNumadRefsMatchLocalProfiles recomputes a sample of the numad
// references, one spec per workload, the way the daemon computes a miss.
func TestNumadRefsMatchLocalProfiles(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Numad) != len(numadRefSpecs()) {
		t.Fatalf("refs.json has %d numad specs, the pool %d", len(r.Numad), len(numadRefSpecs()))
	}
	specs := []server.Spec{
		warmupSpec,
		{Workload: "lulesh", Mechanism: "PEBS", Iters: 2, Bins: 7},
		{Workload: "amg2006", Mechanism: "MRK", Iters: 1, Bins: 24},
		{Workload: "umt2013", Mechanism: "Soft-IBS", Iters: 3, Bins: 2},
	}
	for _, sp := range specs {
		p, b, err := analyzeSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		ref := r.Numad[specName(sp)]
		if got := shaHex(b)[:specSHALen]; got != ref.SHA || p.Totals.MemAccesses != ref.Accesses {
			t.Errorf("%s: sha %s acc %d, reference %s %d", specName(sp), got, p.Totals.MemAccesses, ref.SHA, ref.Accesses)
		}
	}
}

// TestMissSequences checks that clients never share a new spec and that
// each round covers every class once.
func TestMissSequences(t *testing.T) {
	const clients = 2
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		seq := missSequence(5, c, clients)
		if want := len(poolClasses()) * poolBins / clients; len(seq) != want {
			t.Fatalf("client %d: %d specs, want %d", c, len(seq), want)
		}
		for i, sp := range seq {
			name := specName(sp)
			if seen[name] {
				t.Fatalf("spec %s appears twice", name)
			}
			seen[name] = true
			if round := i / len(poolClasses()); sp.Bins != 1+round*clients+c {
				t.Fatalf("client %d spec %d: bins %d", c, i, sp.Bins)
			}
		}
	}
	if a, b := missSequence(5, 0, clients), missSequence(6, 0, clients); specName(a[0]) == specName(b[0]) && specName(a[1]) == specName(b[1]) {
		t.Errorf("seeds 5 and 6 give the same sequence start")
	}
}

// TestDriveFailsWhenSpecsRunOut checks that a client whose new specs
// run out before the deadline records a failure instead of going idle.
func TestDriveFailsWhenSpecsRunOut(t *testing.T) {
	var log numadLog
	load := []*loadClient{{}, {}}
	drive(load, nil, time.Now().Add(time.Minute), &log)
	if log.attempted != 2 || log.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", log.attempted, log.failed)
	}
}
