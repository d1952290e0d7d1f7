// Command perfbench is the end-to-end, layer-attributed benchmark of the
// hpcnuma simulator, profiler and numad service.
//
// Each run executes one workload for a fixed number of host seconds and
// prints, as its last stdout line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, simulator
// throughput, allocation, set-up); with -trace 1 the run instead records
// the workload's simulated access stream once and replays it into each
// layer's public entry points, printing per-layer metrics. Every
// operation's output is checked against the reference fingerprints in
// refs.json; a mismatch counts as a failed operation.
//
// Run it through run.py from the repository root, which builds this
// package and passes the flags on:
//
//	python3 perfbench/run.py --workload profile-lulesh --seed 1 --seconds 20 --trace 0
//
// METRICS.md lists every metric with its unit and layer, and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// maxWorkers caps the worker goroutines and client connections the
// benchmark uses, whatever the host offers, so GOMAXPROCS — which the
// cct merge width and its allocations depend on — is the same on every
// host with at least this many CPUs.
const maxWorkers = 2

// workload is one benchmark workload: a closed loop of operations.
type workload struct {
	name string
	why  string
	// seeded reports whether the seed changes the inputs.
	seeded bool
	// opQuantile is the quantile of the operation times gated as op_s;
	// 0 means the median.
	opQuantile float64
	// setup prepares one ready instance, including warm-up. It is run
	// several times per run; every instance but the last is closed.
	setup func(env *env) (instance, error)
	// trace runs the traced, layer-attributed pass once.
	trace func(env *env) (*layerReport, error)
}

// instance is a set-up workload ready for timed operations.
type instance interface {
	// measure runs operations until the deadline and reports them.
	measure(deadline time.Time) (*e2eReport, error)
	close()
}

// env carries the run's parameters and host facts.
type env struct {
	seed    int64
	seconds int
	workers int
	workdir string
	refs    *refs
	log     func(format string, args ...any)
}

var allWorkloads = []workload{profileLULESH, sweepTable2, numadMixed}

// setupRepeats is how many times a run sets its workload up; setup_s is
// their median.
const setupRepeats = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: profile-lulesh, sweep-table2 or numad-mixed")
		seed    = flag.Int64("seed", 1, "input seed (numad-mixed only; the others are deterministic)")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced, layer-attributed run instead of end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for daemon stores")
		genRefs = flag.String("gen-refs", "", "regenerate reference fingerprints into this file and exit")
	)
	flag.Parse()

	// Per-job info logs from the daemon would flood stderr; warnings stay.
	if err := telemetry.SetLogSpec("warn"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workers := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(workers)
	sched.SetWorkers(workers)

	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	if *genRefs != "" {
		if err := generateRefs(*genRefs, workers, logf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var wl *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			wl = &allWorkloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (profile-lulesh|sweep-table2|numad-mixed), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, workers: workers, workdir: *workdir, refs: r, log: logf}

	logf("perfbench workload=%s seed=%d seconds=%d trace=%d", wl.name, e.seed, e.seconds, *trace)
	logf("why %s", wl.why)
	// numad-mixed is the one seeded workload and the one with a client
	// per worker; the others are single closed-loop clients.
	seedNote, clients := "selects the spec sequence", workers
	if !wl.seeded {
		seedNote, clients = "ignored: deterministic workload", 1
	}
	logf("host nproc=%d gomaxprocs=%d go=%s sched_workers=%d server_workers=%d clients=%d seed=%d (%s)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sched.Workers(), workers,
		clients, e.seed, seedNote)

	var res result
	if *trace == 1 {
		res, err = runTraced(wl, e)
	} else {
		res, err = runEndToEnd(wl, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eReport is what one instance's measure returns.
type e2eReport struct {
	attempted, failed int
	// op holds the host seconds of each primary operation.
	op []float64
	// notes are extra text lines to print, such as further timing
	// distributions that are not gated.
	notes    []string
	elapsed  float64 // measured window, s
	jobs     int     // completed jobs (profiles, Table 2 cells, numad jobs)
	accesses float64 // simulated memory accesses in completed operations
	allocB   float64 // host bytes allocated in the window
	failures []string
}

func runEndToEnd(wl *workload, e *env) (result, error) {
	var (
		setups []float64
		inst   instance
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		in, err := wl.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
	}
	defer inst.close()

	rep, err := inst.measure(time.Now().Add(time.Duration(e.seconds) * time.Second))
	if err != nil {
		return result{}, err
	}
	for _, f := range rep.failures {
		e.log("FAIL %s", f)
	}
	if len(rep.op) == 0 || rep.jobs == 0 {
		return result{}, fmt.Errorf("%s: no operation completed in %ds", wl.name, e.seconds)
	}
	q := wl.opQuantile
	if q == 0 {
		q = 0.5
	}
	opS := quantile(rep.op, q)
	jobsPerS := float64(rep.jobs) / rep.elapsed
	accPerS := rep.accesses / rep.elapsed
	if wl.name != numadMixed.name {
		// A closed loop of one client: throughputs are the work of one
		// successful operation over the gated operation time, so one
		// slow outlier does not move them.
		ok := float64(len(rep.op) - rep.failed)
		jobsPerS = float64(rep.jobs) / ok / opS
		accPerS = rep.accesses / ok / opS
	}
	m := map[string]metric{
		"op_s":              {opS, "s"},
		"jobs_per_s":        {jobsPerS, "1/s"},
		"sim_maccess_per_s": {accPerS / 1e6, "M/s"},
		"alloc_mb":          {rep.allocB / 1e6 / float64(rep.attempted), "MB"},
		"setup_s":           {median(setups), "s"},
	}

	e.log("%s", distLine("op_s", "s", rep.op))
	for _, n := range rep.notes {
		e.log("%s", n)
	}
	e.log("%s", distLine("setup_s", "s", setups))
	e.log("fail_ratio %.4f (%d/%d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	keys := make([]string, 0, len(m))
	for name := range m {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		e.log("metric %s %.6g %s", name, m[name].Value, m[name].Unit)
	}
	return result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   m,
	}, nil
}

// closedLoop runs op back to back until the deadline, as one client
// that waits for each result. op returns the jobs and simulated
// accesses one successful operation completes.
func closedLoop(deadline time.Time, op func() (jobs int, accesses float64, err error)) *e2eReport {
	rep := &e2eReport{}
	a0 := allocated()
	start := time.Now()
	for time.Now().Before(deadline) {
		t0 := time.Now()
		jobs, acc, err := op()
		rep.op = append(rep.op, time.Since(t0).Seconds())
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.failures = append(rep.failures, err.Error())
			continue
		}
		rep.jobs += jobs
		rep.accesses += acc
	}
	rep.elapsed = time.Since(start).Seconds()
	rep.allocB = float64(allocated() - a0)
	return rep
}
