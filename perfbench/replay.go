package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

// The traced run attributes host time to layers from outside the
// program: a recorder hook captures the simulated event stream of one
// unmonitored run, and every chunk of it is replayed into fresh
// replicas of the vm, cache, mem, interconnect and pmu layers through
// their public entry points, each layer timed on its own. Replaying a
// chunk at every region end (or when the chunk is full) keeps recording
// memory bounded; a full LULESH trace would be about 125 MB.

// evKind tags a recorded event.
type evKind uint8

const (
	evAccess evKind = iota
	evCompute
	evAlloc
	evFree
	evSetPolicy
)

// event is one recorded engine event, kept compact: for an access, the
// engine's AccessEvent without the thread pointer; for a compute batch,
// n in addr; for alloc/free/setPolicy, the region ID in region and an
// index into recorder.policies in addr.
type event struct {
	kind    evKind
	isStore bool
	first   bool
	rvalid  bool
	src     cache.DataSource
	thread  int32
	site    isa.SiteID
	region  int32
	home    topology.DomainID
	addr    uint64
	lat     units.Cycles
}

// chunkEvents bounds the recording buffer (about 20 MB).
const chunkEvents = 1 << 18

// recorder is a proc.Hook that records the event stream and hands it
// to the replay layers chunk by chunk.
type recorder struct {
	proc.BaseHook
	e        *proc.Engine
	l        *replayLayers
	buf      []event
	policies []vm.Policy
	// regions maps region IDs to regions; known tracks the placement
	// policy each region had when the replicas last saw it.
	regions []vm.Region
	known   []vm.Policy
}

func newRecorder(e *proc.Engine, l *replayLayers) *recorder {
	r := &recorder{e: e, l: l, buf: make([]event, 0, chunkEvents)}
	// The engine maps statics before any hook is attached.
	for _, sr := range e.StaticRegions() {
		r.alloc(sr, vm.FirstTouch{})
	}
	return r
}

func (r *recorder) push(ev event) {
	r.buf = append(r.buf, ev)
	if len(r.buf) == cap(r.buf) {
		r.flush(false)
	}
}

func (r *recorder) flush(regionEnd bool) {
	r.l.replay(r.buf, r.regions, r.policies, regionEnd)
	r.buf = r.buf[:0]
}

func (r *recorder) alloc(reg vm.Region, pol vm.Policy) {
	for len(r.regions) <= reg.ID {
		r.regions = append(r.regions, vm.Region{})
		r.known = append(r.known, nil)
	}
	r.regions[reg.ID] = reg
	r.known[reg.ID] = pol
	r.policies = append(r.policies, pol)
	r.push(event{kind: evAlloc, region: int32(reg.ID), addr: uint64(len(r.policies) - 1)})
}

// OnAccess records an access. A first touch homes a page by its
// region's policy, which the program may have changed (SetPolicy) since
// the allocation; such a change is recorded before the access.
func (r *recorder) OnAccess(ev *proc.AccessEvent) {
	if ev.FirstTouch && ev.RegionValid {
		pol := r.e.AddressSpace().PolicyOf(ev.Region)
		if !reflect.DeepEqual(pol, r.known[ev.Region.ID]) {
			r.known[ev.Region.ID] = pol
			r.policies = append(r.policies, pol)
			r.push(event{kind: evSetPolicy, region: int32(ev.Region.ID), addr: uint64(len(r.policies) - 1)})
		}
	}
	r.push(event{
		kind:    evAccess,
		isStore: ev.IsStore,
		first:   ev.FirstTouch,
		rvalid:  ev.RegionValid,
		src:     ev.Source,
		thread:  int32(ev.Thread.ID),
		site:    ev.Site,
		region:  int32(ev.Region.ID),
		home:    ev.Home,
		addr:    ev.EA,
		lat:     ev.Latency,
	})
}

func (r *recorder) OnCompute(t *proc.Thread, n uint64) {
	r.push(event{kind: evCompute, thread: int32(t.ID), addr: n})
}

func (r *recorder) OnAlloc(_ *proc.Thread, _ isa.SiteID, reg vm.Region, _ string) {
	r.alloc(reg, r.e.AddressSpace().PolicyOf(reg))
}

func (r *recorder) OnStackAlloc(_ *proc.Thread, _ isa.SiteID, reg vm.Region, _ string) {
	r.alloc(reg, vm.FirstTouch{})
}

func (r *recorder) OnFree(_ *proc.Thread, reg vm.Region) {
	r.push(event{kind: evFree, region: int32(reg.ID)})
}

func (r *recorder) OnRegionEnd(string) { r.flush(true) }

// replayMonitor is one pmu replica with its own replica threads, since
// monitors charge overhead to the threads they observe.
type replayMonitor struct {
	mech    string
	mon     *pmu.Monitor
	threads []*proc.Thread
	ns      float64
}

// replayLayers holds the layer replicas of one recorded run and the
// host time each spent.
type replayLayers struct {
	as       *vm.AddressSpace
	caches   *cache.Hierarchy
	memory   *mem.System
	fabric   *interconnect.Fabric
	domains  []topology.DomainID // per thread
	cpus     []topology.CPUID    // per thread
	monitors []*replayMonitor

	accesses, dram, transfers  float64
	vmNs, cacheNs, memNs, icNs float64
	firstTouches               float64
	divergent                  int // replica vm homes that differ from the recording
}

// newReplayLayers builds replicas for cfg's machine and an engine's
// team, with one pmu monitor per mechanism in mechs.
func newReplayLayers(cfg core.Config, e *proc.Engine, mechs []string) (*replayLayers, error) {
	l := &replayLayers{
		as:     vm.NewAddressSpace(cfg.Machine),
		caches: cache.NewHierarchy(cfg.Machine, cfg.CacheConfig),
		memory: mem.NewSystem(cfg.Machine, cfg.MemParams),
		fabric: interconnect.New(cfg.Machine, cfg.FabricParams),
	}
	for _, t := range e.Threads() {
		l.domains = append(l.domains, t.Domain)
		l.cpus = append(l.cpus, t.CPU)
	}
	for _, name := range mechs {
		mech, err := pmu.ByName(name, cfg.Period)
		if err != nil {
			return nil, err
		}
		rm := &replayMonitor{mech: name, mon: pmu.NewMonitor(mech, e.Program(), nil)}
		rm.mon.CorrectOffByOne = cfg.CorrectOffByOne || !mech.Caps().PreciseIP
		for _, t := range e.Threads() {
			rm.threads = append(rm.threads, &proc.Thread{ID: t.ID, CPU: t.CPU, Domain: t.Domain})
		}
		l.monitors = append(l.monitors, rm)
	}
	return l, nil
}

// replay feeds one chunk to every replica, timing each layer.
func (l *replayLayers) replay(evs []event, regions []vm.Region, pols []vm.Policy, regionEnd bool) {
	t0 := time.Now()
	for i := range evs {
		ev := &evs[i]
		switch ev.kind {
		case evAccess:
			home, first, _, _, err := l.as.TouchRegion(ev.addr, ev.isStore, l.domains[ev.thread])
			if err != nil {
				home = topology.NoDomain
			}
			if home != ev.home || first != ev.first {
				l.divergent++
			}
		case evAlloc:
			l.as.Alloc(regions[ev.region].Size, pols[ev.addr])
		case evFree:
			l.as.Free(regions[ev.region])
		case evSetPolicy:
			l.as.SetPolicy(regions[ev.region], pols[ev.addr])
		}
	}
	t1 := time.Now()
	for i := range evs {
		if ev := &evs[i]; ev.kind == evAccess {
			l.caches.Access(l.cpus[ev.thread], ev.addr, ev.home)
		}
	}
	t2 := time.Now()
	for i := range evs {
		if ev := &evs[i]; ev.kind == evAccess && ev.src.IsDRAM() {
			l.memory.RecordRequest(ev.home)
		}
	}
	if regionEnd {
		l.memory.EndEpoch()
	}
	t3 := time.Now()
	for i := range evs {
		if ev := &evs[i]; ev.kind == evAccess && (ev.src == cache.SrcRemoteCache || ev.src == cache.SrcRemoteDRAM) {
			l.fabric.RecordTransfer(l.domains[ev.thread], ev.home)
		}
	}
	if regionEnd {
		l.fabric.EndEpoch()
	}
	t4 := time.Now()
	l.vmNs += float64(t1.Sub(t0).Nanoseconds())
	l.cacheNs += float64(t2.Sub(t1).Nanoseconds())
	l.memNs += float64(t3.Sub(t2).Nanoseconds())
	l.icNs += float64(t4.Sub(t3).Nanoseconds())

	for _, rm := range l.monitors {
		start := time.Now()
		var pe proc.AccessEvent
		for i := range evs {
			ev := &evs[i]
			switch ev.kind {
			case evAccess:
				pe = proc.AccessEvent{
					Thread:      rm.threads[ev.thread],
					Site:        ev.site,
					EA:          ev.addr,
					IsStore:     ev.isStore,
					Source:      ev.src,
					Home:        ev.home,
					Latency:     ev.lat,
					FirstTouch:  ev.first,
					RegionValid: ev.rvalid,
				}
				if ev.rvalid {
					pe.Region = regions[ev.region]
				}
				rm.mon.OnAccess(&pe)
			case evCompute:
				rm.mon.OnCompute(rm.threads[ev.thread], ev.addr)
			}
		}
		rm.ns += float64(time.Since(start).Nanoseconds())
	}

	for i := range evs {
		if ev := &evs[i]; ev.kind == evAccess {
			l.accesses++
			if ev.first {
				l.firstTouches++
			}
			if ev.src.IsDRAM() {
				l.dram++
			}
			if ev.src == cache.SrcRemoteCache || ev.src == cache.SrcRemoteDRAM {
				l.transfers++
			}
		}
	}
}

// recordRun executes app unmonitored with the recorder attached,
// replaying into fresh layer replicas, and checks the replicas against
// the recorded engine.
func recordRun(cfg core.Config, app core.App, mechs []string) (*replayLayers, *proc.Engine, error) {
	e := proc.NewEngine(proc.Config{
		Machine:      cfg.Machine,
		Program:      app.Binary(),
		Threads:      cfg.Threads,
		CacheConfig:  cfg.CacheConfig,
		MemParams:    cfg.MemParams,
		FabricParams: cfg.FabricParams,
		Binding:      cfg.Binding,
	})
	l, err := newReplayLayers(cfg, e, mechs)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder(e, l)
	e.AddHook(rec)
	app.Run(e)
	rec.flush(false)

	if !reflect.DeepEqual(l.caches.SourceCounts(), e.Caches().SourceCounts()) {
		return nil, nil, fmt.Errorf("replay check: cache source counts %v, recorded engine %v",
			l.caches.SourceCounts(), e.Caches().SourceCounts())
	}
	if l.divergent > 0 || !reflect.DeepEqual(l.as.DomainPages(), e.AddressSpace().DomainPages()) {
		return nil, nil, fmt.Errorf("replay check: vm replica diverged (%d touches, pages %v vs %v)",
			l.divergent, l.as.DomainPages(), e.AddressSpace().DomainPages())
	}
	return l, e, nil
}
