package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/profio"
	"repro/internal/sched"
	"repro/internal/server"
)

// refsJSON holds the reference fingerprints every operation is checked
// against. Regenerate it only when a change is meant to alter simulated
// output:
//
//	cd perfbench && go run . -gen-refs refs.json
//
//go:embed refs.json
var refsJSON []byte

// profileRef fingerprints one profile.
type profileRef struct {
	SHA256  string  `json:"sha256"`
	SimTime uint64  `json:"sim_time"`
	Samples float64 `json:"samples"`
}

// cellRef fingerprints one Table 2 cell: its unmonitored and monitored
// simulated cycles, and the accesses one of its runs simulates.
type cellRef struct {
	Mechanism string `json:"mechanism"`
	Workload  string `json:"workload"`
	Base      uint64 `json:"base_cycles"`
	Monitored uint64 `json:"monitored_cycles"`
	Accesses  uint64 `json:"accesses"`
}

// specRef fingerprints one numad spec: a prefix of the SHA-256 of its
// profile bytes and its simulated accesses.
type specRef struct {
	SHA      string `json:"sha"`
	Accesses uint64 `json:"acc"`
}

type refs struct {
	Profile profileRef         `json:"profile_lulesh"`
	Table2  []cellRef          `json:"table2"`
	Numad   map[string]specRef `json:"numad"`
}

// specSHALen is how many hex digits of a numad profile's SHA-256 the
// references keep: 64 bits tell outputs apart and keep refs.json small.
const specSHALen = 16

func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if r.Profile.SHA256 == "" || len(r.Table2) != 18 || len(r.Numad) == 0 {
		return nil, fmt.Errorf("refs.json is incomplete; regenerate it with -gen-refs")
	}
	return &r, nil
}

// cell returns the reference of a Table 2 cell.
func (r *refs) cell(mech, wl string) (cellRef, bool) {
	for _, c := range r.Table2 {
		if c.Mechanism == mech && c.Workload == wl {
			return c, true
		}
	}
	return cellRef{}, false
}

// sweepAccesses is the simulated accesses of one whole Table 2 sweep:
// each cell simulates its workload twice, unmonitored and monitored.
func (r *refs) sweepAccesses() float64 {
	var n float64
	for _, c := range r.Table2 {
		n += 2 * float64(c.Accesses)
	}
	return n
}

func shaHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// saveProfile encodes p as profio.Save writes it.
func saveProfile(p *core.Profile) ([]byte, error) {
	var b bytes.Buffer
	if err := profio.Save(&b, p); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// analyzeSpec profiles a spec locally, exactly as the daemon computes a
// miss, and returns the profile and its saved bytes.
func analyzeSpec(sp server.Spec) (*core.Profile, []byte, error) {
	cfg, app, err := sp.Build()
	if err != nil {
		return nil, nil, err
	}
	p, err := core.Analyze(cfg, app)
	if err != nil {
		return nil, nil, err
	}
	b, err := saveProfile(p)
	return p, b, err
}

// generateRefs recomputes every reference from the current program.
func generateRefs(path string, workers int, logf func(string, ...any)) error {
	var r refs

	p, b, err := analyzeSpec(luleshSpec)
	if err != nil {
		return fmt.Errorf("profile-lulesh: %w", err)
	}
	r.Profile = profileRef{SHA256: shaHex(b), SimTime: uint64(p.Totals.SimTime), Samples: p.Totals.Samples}

	t2, err := experiments.RunTable2(0)
	if err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	for _, c := range t2.Cells {
		if c.Err != "" {
			return fmt.Errorf("table2 %s/%s: %s", c.Mechanism, c.Workload, c.Err)
		}
		e, err := core.Run(table2Config(c.Mechanism), table2App(c.Workload))
		if err != nil {
			return err
		}
		if e.TotalTime() != c.Base {
			return fmt.Errorf("table2 %s/%s: base %d != sweep's %d", c.Mechanism, c.Workload, e.TotalTime(), c.Base)
		}
		r.Table2 = append(r.Table2, cellRef{Mechanism: c.Mechanism, Workload: c.Workload,
			Base: uint64(c.Base), Monitored: uint64(c.Monitored), Accesses: e.TotalMemAccesses()})
	}

	specs := numadRefSpecs()
	got, err := sched.MapWith(workers, len(specs), func(i int) (specRef, error) {
		p, b, err := analyzeSpec(specs[i])
		if err != nil {
			return specRef{}, err
		}
		return specRef{SHA: shaHex(b)[:specSHALen], Accesses: p.Totals.MemAccesses}, nil
	})
	if err != nil {
		return err
	}
	r.Numad = make(map[string]specRef, len(specs))
	for i, sp := range specs {
		r.Numad[specName(sp)] = got[i]
	}
	out, err := json.MarshalIndent(&r, "", " ")
	if err != nil {
		return err
	}
	logf("wrote %s: 1 profile, %d Table 2 cells, %d numad specs", path, len(r.Table2), len(r.Numad))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
