package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pmu"
	"repro/internal/server"
	"repro/internal/store"
)

var numadMixed = workload{
	name:   "numad-mixed",
	why:    "daemon round trips: new specs compute, journal and save; resubmitted specs only read the store, decode and render",
	seeded: true,
	setup:  setupNumad,
	trace:  traceNumadMixed,
}

// setupNumad starts a daemon and warms it up with one checked round
// trip of a spec outside the pool.
func setupNumad(e *env) (instance, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	c := newClient(d)
	defer c.HTTPClient.CloseIdleConnections()
	if _, _, err := roundTrip(c, warmupSpec, false, e.refs); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &numadInstance{env: e, d: d}, nil
}

// The spec pool: every workload × mechanism × Iters 1-3 (72 classes),
// each at poolBins distinct bin counts, so a run never resubmits a spec
// it meant as new. Bin counts change only the data-centric binning, not
// the simulated work.
var (
	poolWorkloads = []string{"lulesh", "amg2006", "blackscholes", "umt2013"}
	poolIters     = []int{1, 2, 3}
)

const (
	poolBins = 24
	// hitsPerMiss is how many stored specs a client resubmits after
	// each new one.
	hitsPerMiss = 18
)

// warmupSpec is outside the pool (its bin count is past poolBins).
var warmupSpec = server.Spec{Workload: "blackscholes", Mechanism: "IBS", Iters: 1, Bins: poolBins + 1}

// poolClasses lists the 72 spec classes in a fixed order.
func poolClasses() []server.Spec {
	var out []server.Spec
	for _, wl := range poolWorkloads {
		for _, mech := range pmu.Names() {
			for _, it := range poolIters {
				out = append(out, server.Spec{Workload: wl, Mechanism: mech, Iters: it})
			}
		}
	}
	return out
}

// numadRefSpecs lists every spec the workload can submit.
func numadRefSpecs() []server.Spec {
	out := []server.Spec{warmupSpec}
	for b := 1; b <= poolBins; b++ {
		for _, sp := range poolClasses() {
			sp.Bins = b
			out = append(out, sp)
		}
	}
	return out
}

func specName(sp server.Spec) string {
	return fmt.Sprintf("%s/%s/%d/%d", sp.Workload, sp.Mechanism, sp.Iters, sp.Bins)
}

// missSequence is client c's sequence of new specs for a seed: rounds
// of all 72 classes in a seeded order, round r at bin count
// 1 + r*clients + c, so clients never share a spec and every class is
// equally represented however far a run gets.
func missSequence(seed int64, c, clients int) []server.Spec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	classes := poolClasses()
	var out []server.Spec
	for b := 1 + c; b <= poolBins; b += clients {
		for _, i := range rng.Perm(len(classes)) {
			sp := classes[i]
			sp.Bins = b
			out = append(out, sp)
		}
	}
	return out
}

// daemon is an in-process numad: a fresh store and journal in a
// temporary directory, served over HTTP by httptest.
type daemon struct {
	dir string
	st  *store.Store
	jl  *store.Journal
	srv *server.Server
	hs  *httptest.Server
}

func startDaemon(e *env) (*daemon, error) {
	dir, err := os.MkdirTemp(e.workdir, "numad-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	jl, err := store.OpenJournal(filepath.Join(dir, "journal.log"), 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := server.New(server.Options{Store: st, Workers: e.workers, Journal: jl})
	if err != nil {
		jl.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	return &daemon{dir: dir, st: st, jl: jl, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

// close drains the daemon, stops its HTTP server and removes its files.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Close()
	d.jl.Close()
	os.RemoveAll(d.dir)
}

// newClient builds a daemon client with its own connections.
func newClient(d *daemon) *server.Client {
	c := server.NewClient(d.hs.URL)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return c
}

// jobResult is one completed round trip.
type jobResult struct {
	rt     time.Duration // submit → done (SSE) → profile bytes fetched
	status server.JobStatus
}

// roundTrip submits a spec, follows its event stream to the terminal
// state, fetches the profile bytes (the timed part), then fetches the
// text view, and checks the job against the references.
func roundTrip(c *server.Client, sp server.Spec, wantHit bool, r *refs) (jobResult, uint64, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := c.Submit(ctx, sp)
	if err != nil {
		return jobResult{}, 0, fmt.Errorf("%s submit: %w", specName(sp), err)
	}
	st, err = c.Follow(ctx, st.ID, nil)
	if err != nil {
		return jobResult{}, 0, fmt.Errorf("%s follow: %w", specName(sp), err)
	}
	if st.State != server.StateDone {
		return jobResult{}, 0, fmt.Errorf("%s: job %s ended %s: %s", specName(sp), st.ID, st.State, st.Error)
	}
	b, err := c.ProfileBytes(ctx, st.ID)
	if err != nil {
		return jobResult{}, 0, fmt.Errorf("%s profile: %w", specName(sp), err)
	}
	res := jobResult{rt: time.Since(t0), status: st}
	text, err := c.Text(ctx, st.ID)
	if err != nil {
		return res, 0, fmt.Errorf("%s text: %w", specName(sp), err)
	}
	ref, ok := r.Numad[specName(sp)]
	switch {
	case !ok:
		return res, 0, fmt.Errorf("%s: no reference", specName(sp))
	case shaHex(b)[:specSHALen] != ref.SHA:
		return res, 0, fmt.Errorf("%s: served profile sha %s, want %s", specName(sp), shaHex(b)[:specSHALen], ref.SHA)
	case st.CacheHit != wantHit:
		return res, 0, fmt.Errorf("%s: cache_hit %v, want %v", specName(sp), st.CacheHit, wantHit)
	case text == "":
		return res, 0, fmt.Errorf("%s: empty text view", specName(sp))
	}
	return res, ref.Accesses, nil
}

type numadInstance struct {
	env *env
	d   *daemon
}

func (in *numadInstance) close() { in.d.close() }

// numadLog is what the clients of one measured window collect.
type numadLog struct {
	mu                sync.Mutex
	miss, hit         []jobResult
	attempted, failed int
	accesses          float64
	failures          []string
}

func (l *numadLog) add(res jobResult, hit bool, acc uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		l.failures = append(l.failures, err.Error())
		return
	}
	if hit {
		l.hit = append(l.hit, res)
		return
	}
	l.miss = append(l.miss, res)
	l.accesses += float64(acc)
}

// loadClient is one closed-loop client and its place in its spec
// sequence, kept across measured windows.
type loadClient struct {
	c      *server.Client
	seq    []server.Spec // new specs, in order
	next   int
	stored []server.Spec // specs this client has completed
	rng    *rand.Rand    // picks the resubmissions
}

// newLoad builds the env's clients against a daemon.
func newLoad(e *env, d *daemon) []*loadClient {
	var out []*loadClient
	for c := 0; c < e.workers; c++ {
		out = append(out, &loadClient{
			c:   newClient(d),
			seq: missSequence(e.seed, c, e.workers),
			rng: rand.New(rand.NewSource(e.seed*104729 + int64(c))),
		})
	}
	return out
}

func closeLoad(load []*loadClient) {
	for _, lc := range load {
		lc.c.HTTPClient.CloseIdleConnections()
	}
}

// drive runs the closed loop: each client submits its next new spec,
// then hitsPerMiss resubmissions of specs it has already completed,
// until the deadline. A client whose spec sequence runs out before the
// deadline records a failure and stops, since the window would then no
// longer measure two clients.
func drive(load []*loadClient, r *refs, deadline time.Time, log *numadLog) {
	var wg sync.WaitGroup
	for _, lc := range load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; time.Now().Before(deadline); lc.next++ {
				if lc.next == len(lc.seq) {
					log.add(jobResult{}, false, 0, fmt.Errorf("client ran out of its %d new specs before the deadline", len(lc.seq)))
					return
				}
				sp := lc.seq[lc.next]
				res, acc, err := roundTrip(lc.c, sp, false, r)
				log.add(res, false, acc, err)
				if err != nil {
					continue
				}
				lc.stored = append(lc.stored, sp)
				for h := 0; h < hitsPerMiss && time.Now().Before(deadline); h++ {
					res, acc, err := roundTrip(lc.c, lc.stored[lc.rng.Intn(len(lc.stored))], true, r)
					log.add(res, true, acc, err)
				}
			}
		}()
	}
	wg.Wait()
}

// measure gates the stored-spec round trip as op_s; new specs reach
// the gate through sim_maccess_per_s and jobs_per_s, and their round
// trip is printed as rt_miss_s.
func (in *numadInstance) measure(deadline time.Time) (*e2eReport, error) {
	var log numadLog
	a0 := allocated()
	start := time.Now()
	load := newLoad(in.env, in.d)
	drive(load, in.env.refs, deadline, &log)
	closeLoad(load)
	elapsed := time.Since(start).Seconds()
	alloc := float64(allocated() - a0)

	rep := &e2eReport{
		attempted: log.attempted,
		failed:    log.failed,
		elapsed:   elapsed,
		jobs:      len(log.miss) + len(log.hit),
		accesses:  log.accesses,
		allocB:    alloc,
		failures:  log.failures,
	}
	var missS, hitMs []float64
	var missSum, hitSum float64
	for _, j := range log.miss {
		missS = append(missS, j.rt.Seconds())
		missSum += j.rt.Seconds()
	}
	for _, j := range log.hit {
		rep.op = append(rep.op, j.rt.Seconds())
		hitMs = append(hitMs, j.rt.Seconds()*1e3)
		hitSum += j.rt.Seconds()
	}
	rep.notes = []string{
		distLine("rt_miss_s", "s", missS),
		distLine("rt_hit_ms", "ms", hitMs),
		fmt.Sprintf("loop share new %.1f%% stored %.1f%% (%d hits per miss)",
			100*missSum/(missSum+hitSum), 100*hitSum/(missSum+hitSum), hitsPerMiss),
	}
	return rep, nil
}
