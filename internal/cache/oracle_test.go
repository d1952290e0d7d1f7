package cache_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workloads"
)

// setAssoc is the reference model of one set-associative LRU cache:
// one independent tag array per cache, MRU first, updated by slice
// copies. It is deliberately the straightforward version, so the flat
// single-pass tag store of cache.Hierarchy can be checked against it.
type setAssoc struct {
	// sets holds ways tags per set in MRU-first order; zero means
	// empty (tag values are offset by 1 to distinguish empty slots).
	sets      []uint64
	ways      int
	setMask   uint64
	lineShift uint // log2(lineSize)
}

func newSetAssoc(sets, ways int, lineSize units.Bytes) *setAssoc {
	return &setAssoc{
		sets:      make([]uint64, sets*ways),
		ways:      ways,
		lineShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		setMask:   uint64(sets - 1),
	}
}

// access looks up addr, returning true on hit. Hit or miss, the line
// becomes most-recently-used; on miss the LRU way is evicted.
func (c *setAssoc) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line + 1
	ways := c.sets[set*c.ways : (set+1)*c.ways]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = tag
	return false
}

// oracle is the reference hierarchy: one setAssoc per CPU for L1 and
// L2 and one per domain for L3, with the CPU's domain asked of the
// topology on every access. Access follows the documented
// classification of cache.Hierarchy.Access step by step.
type oracle struct {
	cfg          cache.Config
	topo         *topology.Machine
	l1, l2, l3   []*setAssoc
	sourceCounts [cache.SrcRemoteDRAM + 1]uint64
}

func newOracle(topo *topology.Machine, cfg cache.Config) *oracle {
	o := &oracle{cfg: cfg, topo: topo}
	for i := 0; i < topo.NumCPUs(); i++ {
		o.l1 = append(o.l1, newSetAssoc(cfg.L1Sets, cfg.L1Ways, cfg.LineSize))
		o.l2 = append(o.l2, newSetAssoc(cfg.L2Sets, cfg.L2Ways, cfg.LineSize))
	}
	for i := 0; i < topo.NumDomains(); i++ {
		o.l3 = append(o.l3, newSetAssoc(cfg.L3Sets, cfg.L3Ways, cfg.LineSize))
	}
	return o
}

func (o *oracle) count(s cache.DataSource, lat units.Cycles) cache.Result {
	o.sourceCounts[s]++
	return cache.Result{Source: s, OnChipLatency: lat}
}

func (o *oracle) Access(cpu topology.CPUID, addr uint64, home topology.DomainID) cache.Result {
	local := o.topo.DomainOfCPU(cpu)
	if cpu >= 0 && int(cpu) < len(o.l1) {
		if o.l1[cpu].access(addr) {
			return o.count(cache.SrcL1, o.cfg.L1Latency)
		}
		if o.l2[cpu].access(addr) {
			return o.count(cache.SrcL2, o.cfg.L2Latency)
		}
	}
	if local >= 0 && int(local) < len(o.l3) && o.l3[local].access(addr) {
		return o.count(cache.SrcL3, o.cfg.L3Latency)
	}
	lookup := o.cfg.L3Latency
	if home != local && home >= 0 && int(home) < len(o.l3) && o.l3[home].access(addr) {
		return o.count(cache.SrcRemoteCache, lookup+o.cfg.RemoteCacheLatency)
	}
	if home == topology.NoDomain || local == home {
		return o.count(cache.SrcLocalDRAM, lookup)
	}
	return o.count(cache.SrcRemoteDRAM, lookup)
}

func (o *oracle) Flush() {
	for _, level := range [][]*setAssoc{o.l1, o.l2, o.l3} {
		for _, c := range level {
			clear(c.sets)
		}
	}
	o.sourceCounts = [cache.SrcRemoteDRAM + 1]uint64{}
}

// op is one step of a checked stream: an access, or a Flush of both
// hierarchies when flush is set.
type op struct {
	flush bool
	cpu   topology.CPUID
	addr  uint64
	home  topology.DomainID
}

// checkAgainstOracle replays ops through a fresh cache.Hierarchy and a
// fresh oracle and fails on the first Result that differs, then on any
// difference in the final SourceCounts, which it returns.
func checkAgainstOracle(t *testing.T, topo *topology.Machine, cfg cache.Config, ops []op) map[cache.DataSource]uint64 {
	t.Helper()
	h := cache.NewHierarchy(topo, cfg)
	o := newOracle(topo, cfg)
	for i, p := range ops {
		if p.flush {
			h.Flush()
			o.Flush()
			continue
		}
		got, want := h.Access(p.cpu, p.addr, p.home), o.Access(p.cpu, p.addr, p.home)
		if got != want {
			t.Fatalf("op %d: Access(cpu=%d, addr=%#x, home=%d) = %+v, oracle %+v",
				i, p.cpu, p.addr, p.home, got, want)
		}
	}
	got := h.SourceCounts()
	for s, n := range o.sourceCounts {
		if got[cache.DataSource(s)] != n {
			t.Fatalf("SourceCounts() = %v, oracle %v", got, o.sourceCounts)
		}
	}
	return got
}

func smallMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "oracle", NumDomains: 2, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

// oddGeometry is a geometry with the given ways and sets at every
// level: ways need not be a power of two, and one set is legal.
func oddGeometry(sets, ways int) cache.Config {
	cfg := cache.DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = sets, ways
	cfg.L2Sets, cfg.L2Ways = sets, ways+1
	cfg.L3Sets, cfg.L3Ways = sets*2, ways+2
	return cfg
}

// oracleCases are the geometries and machines the oracle checks.
var oracleCases = []struct {
	name string
	topo func() *topology.Machine
	cfg  cache.Config
}{
	{"default", smallMachine, cache.DefaultConfig()},
	{"tuned/magny-cours", topology.MagnyCours48, workloads.TunedCacheConfig()},
	{"tuned/small", smallMachine, workloads.TunedCacheConfig()},
	{"1-way", smallMachine, oddGeometry(4, 1)},
	{"3-way", smallMachine, oddGeometry(4, 3)},
	{"1-set", smallMachine, oddGeometry(1, 2)},
}

// seededStream generates n operations with reuse at every level: half
// the accesses go to a pool the size of one L1, the rest to a pool four
// times the whole L3 capacity. CPUs range over -1..NumCPUs and homes
// over NoDomain..NumDomains+1, so unmapped CPUs and out-of-range homes
// appear, and the stream is flushed once at its midpoint.
func seededStream(seed int64, n int, topo *topology.Machine, cfg cache.Config) []op {
	r := rand.New(rand.NewSource(seed))
	hot := cfg.L1Sets * cfg.L1Ways
	cold := 4 * cfg.L3Sets * cfg.L3Ways * topo.NumDomains()
	ops := make([]op, 0, n+1)
	for i := 0; i < n; i++ {
		if i == n/2 {
			ops = append(ops, op{flush: true})
		}
		line := r.Intn(hot)
		if r.Intn(2) == 0 {
			line = hot + r.Intn(cold)
		}
		ops = append(ops, op{
			cpu:  topology.CPUID(r.Intn(topo.NumCPUs()+2) - 1),
			addr: uint64(line)*uint64(cfg.LineSize) + uint64(r.Intn(int(cfg.LineSize))),
			home: topology.DomainID(r.Intn(topo.NumDomains()+3) - 1),
		})
	}
	return ops
}

// TestHierarchyMatchesOracle drives seeded streams through the flat
// hierarchy and the reference model and requires identical Results and
// SourceCounts on every geometry. Every data source must occur after the
// final Flush, or the stream would leave a level unchecked.
func TestHierarchyMatchesOracle(t *testing.T) {
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			topo := c.topo()
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					counts := checkAgainstOracle(t, topo, c.cfg, seededStream(seed, 20000, topo, c.cfg))
					for s := cache.SrcL1; s <= cache.SrcRemoteDRAM; s++ {
						if counts[s] == 0 {
							t.Errorf("stream never reached %v: %v", s, counts)
						}
					}
				})
			}
		})
	}
}

// FuzzHierarchyMatchesOracle decodes arbitrary bytes into an access
// stream over one of the oracle geometries. Each 4-byte group is one
// access (CPU selector, home selector, 16-bit line); a CPU selector of
// 0xff flushes instead. CPUs span -1..NumCPUs and homes
// NoDomain..NumDomains+1, so degraded inputs are fuzzed too.
func FuzzHierarchyMatchesOracle(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0})
	f.Add(uint8(1), []byte{5, 2, 7, 0, 5, 2, 7, 0, 0xff, 0, 0, 0, 5, 9, 7, 0})
	f.Add(uint8(3), []byte{1, 0, 0, 0, 1, 0, 4, 0, 1, 0, 8, 0, 1, 0, 0, 0})
	f.Add(uint8(5), []byte("an unmapped cpu, an out-of-range home"))

	f.Fuzz(func(t *testing.T, geom uint8, data []byte) {
		c := oracleCases[int(geom)%len(oracleCases)]
		topo := c.topo()
		var ops []op
		for ; len(data) >= 4; data = data[4:] {
			if data[0] == 0xff {
				ops = append(ops, op{flush: true})
				continue
			}
			line := uint64(data[2]) | uint64(data[3])<<8
			ops = append(ops, op{
				cpu:  topology.CPUID(int(data[0])%(topo.NumCPUs()+2) - 1),
				addr: line * uint64(c.cfg.LineSize),
				home: topology.DomainID(int(data[1])%(topo.NumDomains()+3) - 1),
			})
		}
		checkAgainstOracle(t, topo, c.cfg, ops)
	})
}
