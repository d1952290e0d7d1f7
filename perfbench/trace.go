package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/profio"
	"repro/internal/telemetry"
	"repro/internal/view"
)

// layerReport accumulates per-layer figures over every simulated run a
// workload's traced pass covers (one profile, 18 Table 2 cells, or a
// sample of numad specs). Times are host time; cycles are simulated.
type layerReport struct {
	runs int

	// proc: the unmonitored core.Run.
	accesses, instructions, simCycles, runS float64
	// vm, cache, mem, interconnect: replayed from the recorded stream.
	vmNs, firstTouches, pages float64
	cacheNs                   float64
	sources                   map[cache.DataSource]uint64
	memNs, dram, imbalanceW   float64
	icNs, transfers           float64
	// pmu: the run's own mechanism, and every mechanism by name.
	pmuNs, pmuAccesses, samples, overheadCycles float64
	mechNs, mechAccesses                        map[string]float64
	// core: the monitored core.AnalyzeCtx and its pipeline.* spans.
	analyzeS, spanSetupS, spanRunS, spanMergeS, spanDeriveS float64
	// cct, profio, view on the run's profile.
	cctMergeS, cctNodes, cctTrees  float64
	encodeS, decodeS, bytes, viewS float64

	// tracedOpS and untracedOpS time the workload's operation with the
	// span tracer on and off.
	tracedOpS, untracedOpS float64
	// extra are workload-specific layer figures (sched, server, store),
	// printed as text lines.
	extra []namedMetric
	// shareOfS, when set, is the host time the layer shares are printed
	// against, and enginesPerRun how many engine runs of that time each
	// recorded run stands for.
	shareOfS, enginesPerRun float64
}

type namedMetric struct {
	name string
	metric
}

func newLayerReport() *layerReport {
	return &layerReport{
		sources:      map[cache.DataSource]uint64{},
		mechNs:       map[string]float64{},
		mechAccesses: map[string]float64{},
	}
}

func (lr *layerReport) addExtra(name string, v float64, unit string) {
	lr.extra = append(lr.extra, namedMetric{name, metric{v, unit}})
}

// spanSums runs fn with a fresh span tracer installed and returns the
// total duration of each span name, in seconds.
func spanSums(fn func(ctx context.Context) error) (map[string]float64, error) {
	tr := telemetry.NewTracer()
	prev := telemetry.SetTracer(tr)
	err := fn(context.Background())
	telemetry.SetTracer(prev)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		sums[ev.Name] += float64(ev.Dur) / 1e6
	}
	return sums, nil
}

// traceRun covers one simulated run in every layer: an unmonitored
// core.Run, a monitored core.AnalyzeCtx under the span tracer, the
// profile's encode/decode/render and CCT merge, and a recorded run
// replayed into layer replicas (own mechanism first, then mechs). It
// checks both replay self-checks.
func (lr *layerReport) traceRun(cfg core.Config, mkApp func() core.App, mechs []string) (tracedRun, error) {
	lr.runs++
	t0 := time.Now()
	e, err := core.Run(cfg, mkApp())
	if err != nil {
		return tracedRun{}, err
	}
	runS := time.Since(t0).Seconds()
	lr.runS += runS
	lr.accesses += float64(e.TotalMemAccesses())
	lr.instructions += float64(e.TotalInstructions())
	lr.simCycles += float64(e.TotalTime())

	var p *core.Profile
	var analyzeS float64
	spans, err := spanSums(func(ctx context.Context) error {
		t0 := time.Now()
		p, err = core.AnalyzeCtx(ctx, cfg, mkApp())
		analyzeS = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return tracedRun{}, err
	}
	lr.analyzeS += analyzeS
	lr.spanSetupS += spans["pipeline.engine_setup"]
	lr.spanRunS += spans["pipeline.sampling_run"]
	lr.spanMergeS += spans["pipeline.cct_merge"]
	lr.spanDeriveS += spans["pipeline.derive_metrics"]

	t0 = time.Now()
	b, err := saveProfile(p)
	if err != nil {
		return tracedRun{}, err
	}
	lr.encodeS += time.Since(t0).Seconds()
	lr.bytes += float64(len(b))
	t0 = time.Now()
	dp, err := profio.Load(bytes.NewReader(b))
	if err != nil {
		return tracedRun{}, err
	}
	lr.decodeS += time.Since(t0).Seconds()
	t0 = time.Now()
	if view.Report(dp, 5) == "" {
		return tracedRun{}, fmt.Errorf("empty report")
	}
	lr.viewS += time.Since(t0).Seconds()
	t0 = time.Now()
	merged := cct.New()
	cct.MergeShards(merged, p.PerThreadTrees, runtime.GOMAXPROCS(0))
	lr.cctMergeS += time.Since(t0).Seconds()
	lr.cctNodes += float64(merged.Root().Size())
	lr.cctTrees += float64(len(p.PerThreadTrees))

	own := cfg.Mechanism
	if own == "" {
		own = "IBS"
	}
	all := []string{own}
	for _, m := range mechs {
		if m != own {
			all = append(all, m)
		}
	}
	l, re, err := recordRun(cfg, mkApp(), all)
	if err != nil {
		return tracedRun{}, err
	}
	if got := l.monitors[0].mon.SamplesTaken(); float64(got) != p.Totals.Samples {
		return tracedRun{}, fmt.Errorf("replay check: replica %s monitor took %d samples, profile has %v",
			own, got, p.Totals.Samples)
	}
	lr.vmNs += l.vmNs
	lr.firstTouches += l.firstTouches
	for _, n := range l.as.DomainPages() {
		lr.pages += float64(n)
	}
	lr.cacheNs += l.cacheNs
	for s, n := range re.Caches().SourceCounts() {
		lr.sources[s] += n
	}
	lr.memNs += l.memNs
	lr.dram += l.dram
	lr.imbalanceW += l.dram * l.memory.Imbalance()
	lr.icNs += l.icNs
	lr.transfers += l.transfers
	ownMon := l.monitors[0]
	lr.pmuNs += ownMon.ns
	lr.pmuAccesses += l.accesses
	lr.samples += float64(ownMon.mon.SamplesTaken())
	lr.overheadCycles += float64(ownMon.mon.OverheadCharged())
	for _, rm := range l.monitors {
		lr.mechNs[rm.mech] += rm.ns
		lr.mechAccesses[rm.mech] += l.accesses
	}
	return tracedRun{p: p, bytes: b, base: uint64(e.TotalTime()), runS: runS, analyzeS: analyzeS}, nil
}

// tracedRun is what traceRun learns about one simulated run.
type tracedRun struct {
	p     *core.Profile
	bytes []byte
	// base is the unmonitored run's simulated cycles.
	base uint64
	// runS and analyzeS are the host seconds of core.Run and of the
	// traced core.AnalyzeCtx.
	runS, analyzeS float64
}

// metrics flattens the report into the per-layer metrics every workload
// prints.
func (lr *layerReport) metrics() map[string]metric {
	// div keeps a layer that did no work (a machine without remote
	// traffic, say) from producing NaN, which JSON cannot carry.
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var total uint64
	for _, n := range lr.sources {
		total += n
	}
	share := func(srcs ...cache.DataSource) float64 {
		var n uint64
		for _, s := range srcs {
			n += lr.sources[s]
		}
		return div(float64(n), float64(total))
	}
	m := map[string]metric{
		"proc.accesses":      {lr.accesses, "count"},
		"proc.instructions":  {lr.instructions, "count"},
		"proc.sim_cycles":    {lr.simCycles, "cycles"},
		"proc.run_s":         {lr.runS, "s"},
		"proc.ns_per_access": {div(lr.runS*1e9, lr.accesses), "ns"},

		"vm.touch_ns":      {div(lr.vmNs, lr.accesses), "ns"},
		"vm.first_touches": {lr.firstTouches, "count"},
		"vm.pages":         {lr.pages, "count"},

		"cache.probe_ns":     {div(lr.cacheNs, lr.accesses), "ns"},
		"cache.l1_hit_ratio": {share(cache.SrcL1), "ratio"},
		"cache.dram_ratio":   {share(cache.SrcLocalDRAM, cache.SrcRemoteDRAM), "ratio"},
		"cache.remote_ratio": {share(cache.SrcRemoteCache, cache.SrcRemoteDRAM), "ratio"},

		"mem.dram_requests": {lr.dram, "count"},
		"mem.record_ns":     {div(lr.memNs, lr.dram), "ns"},
		"mem.imbalance":     {div(lr.imbalanceW, lr.dram), "ratio"},

		"interconnect.transfers": {lr.transfers, "count"},
		"interconnect.record_ns": {div(lr.icNs, lr.transfers), "ns"},

		"pmu.observe_ns":      {div(lr.pmuNs, lr.pmuAccesses), "ns"},
		"pmu.samples":         {lr.samples, "count"},
		"pmu.sample_ratio":    {div(lr.samples, lr.pmuAccesses), "ratio"},
		"pmu.overhead_cycles": {lr.overheadCycles, "cycles"},

		"core.analyze_s":     {lr.analyzeS, "s"},
		"core.monitor_s":     {lr.spanRunS - lr.runS, "s"},
		"core.ns_per_sample": {div((lr.spanRunS-lr.runS)*1e9, lr.samples), "ns"},
		"core.setup_s":       {lr.spanSetupS, "s"},
		"core.merge_s":       {lr.spanMergeS, "s"},
		"core.derive_s":      {lr.spanDeriveS, "s"},

		"cct.merge_s": {lr.cctMergeS, "s"},
		"cct.nodes":   {lr.cctNodes, "count"},
		"cct.trees":   {lr.cctTrees, "count"},

		"profio.encode_s": {lr.encodeS, "s"},
		"profio.decode_s": {lr.decodeS, "s"},
		"profio.bytes":    {lr.bytes, "bytes"},
		"view.report_s":   {lr.viewS, "s"},

		"trace.op_s":          {lr.tracedOpS, "s"},
		"trace.untraced_op_s": {lr.untracedOpS, "s"},
		"trace.overhead":      {div(lr.tracedOpS, lr.untracedOpS), "x"},
	}
	for _, mech := range pmu.Names() {
		m["pmu.observe_ns."+mech] = metric{div(lr.mechNs[mech], lr.mechAccesses[mech]), "ns"}
	}
	return m
}

// runTraced runs a workload's traced pass and prints its per-layer
// metrics, the workload-specific ones as text lines.
func runTraced(wl *workload, e *env) (result, error) {
	lr, err := wl.trace(e)
	if err != nil {
		return result{}, err
	}
	m := lr.metrics()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		e.log("layer %s %.6g %s", k, m[k].Value, m[k].Unit)
	}
	for _, x := range lr.extra {
		e.log("layer %s %.6g %s", x.name, x.Value, x.Unit)
	}
	if lr.shareOfS > 0 {
		pct := func(ns float64) float64 { return 100 * ns / 1e9 * lr.enginesPerRun / lr.shareOfS }
		e.log("share vm %.1f%% cache %.1f%% pmu %.1f%% mem+interconnect %.1f%% of %.4g s; cct.merge_s+profio.encode_s+core.derive_s %.2f%%",
			pct(lr.vmNs), pct(lr.cacheNs), pct(lr.pmuNs), pct(lr.memNs+lr.icNs), lr.shareOfS,
			100*(lr.cctMergeS+lr.encodeS+lr.spanDeriveS)/lr.shareOfS)
	}
	return result{Correct: true, Attempted: lr.runs, Failed: 0, Metrics: m}, nil
}
