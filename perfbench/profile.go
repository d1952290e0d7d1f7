package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// luleshSpec is the canonical single profile: the numad/numaprof
// defaults for LULESH (IBS on amd-magny-cours-48, 48 threads,
// first-touch tracking on).
var luleshSpec = server.Spec{Workload: "lulesh"}

var profileLULESH = workload{
	name: "profile-lulesh",
	why:  "the canonical single profile: per-access path with dense IBS sampling, so engine, vm, cache and pmu do most of the work",
	// A profile takes under half a second, so each one runs in a single
	// speed state of a shared host, and hosts that alternate between a
	// fast and a slow state every few seconds give profile times in two
	// clusters. The median jumps between them whenever neither holds
	// half the run; the upper quartile stays in the slower one unless
	// the faster holds three quarters of it.
	opQuantile: 0.75,
	setup: func(e *env) (instance, error) {
		in := &profileInstance{env: e}
		// Warm-up: one full, checked operation.
		if _, err := in.op(); err != nil {
			return nil, err
		}
		return in, nil
	},
	trace: traceProfileLULESH,
}

type profileInstance struct{ env *env }

// op builds the spec, profiles it and saves the profile, then checks
// the result against the references.
func (in *profileInstance) op() (accesses uint64, err error) {
	cfg, app, err := luleshSpec.Build()
	if err != nil {
		return 0, err
	}
	p, err := core.AnalyzeCtx(context.Background(), cfg, app)
	if err != nil {
		return 0, err
	}
	b, err := saveProfile(p)
	if err != nil {
		return 0, err
	}
	return p.Totals.MemAccesses, checkProfile(in.env.refs.Profile, p, b)
}

// checkProfile compares a profile and its bytes with the reference.
func checkProfile(ref profileRef, p *core.Profile, b []byte) error {
	if got := shaHex(b); got != ref.SHA256 {
		return fmt.Errorf("profile sha256 %s, want %s", got, ref.SHA256)
	}
	if uint64(p.Totals.SimTime) != ref.SimTime || p.Totals.Samples != ref.Samples {
		return fmt.Errorf("profile SimTime %d Samples %v, want %d %v",
			p.Totals.SimTime, p.Totals.Samples, ref.SimTime, ref.Samples)
	}
	return nil
}

func (in *profileInstance) measure(deadline time.Time) (*e2eReport, error) {
	return closedLoop(deadline, func() (int, float64, error) {
		acc, err := in.op()
		return 1, float64(acc), err
	}), nil
}

func (in *profileInstance) close() {}
