// Package cache simulates the cache hierarchy of a NUMA machine:
// private L1 and L2 caches per CPU and one shared L3 per NUMA domain.
//
// The hierarchy classifies each memory access by its *data source* —
// the level that finally satisfied it — which is exactly what hardware
// address sampling reports (IBS "data source", PEBS-LL "load latency
// data source", POWER7 marked-event source). Two paper-relevant
// behaviours emerge from the model:
//
//   - MRK-style samplers can restrict sampling to accesses whose source
//     is beyond the local L3 ("L3 miss" events, Section 8.4), and
//   - a variable homed in a remote domain can still be served by a
//     local cache after the first touch, the bias scenario Section 4.1
//     warns about when interpreting M_r.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
	"repro/internal/units"
)

// DataSource classifies where an access was satisfied.
type DataSource int

// Data sources, ordered from cheapest to most expensive.
const (
	SrcL1 DataSource = iota
	SrcL2
	SrcL3          // local domain's shared L3
	SrcRemoteCache // remote domain's shared L3
	SrcLocalDRAM
	SrcRemoteDRAM
	numSources
)

// String returns the conventional name of the data source.
func (s DataSource) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcRemoteCache:
		return "RMT_CACHE"
	case SrcLocalDRAM:
		return "LCL_DRAM"
	case SrcRemoteDRAM:
		return "RMT_DRAM"
	default:
		return fmt.Sprintf("DataSource(%d)", int(s))
	}
}

// IsDRAM reports whether the access went to memory (local or remote).
func (s DataSource) IsDRAM() bool { return s == SrcLocalDRAM || s == SrcRemoteDRAM }

// IsRemote reports whether the access crossed a domain boundary: a
// remote cache hit or remote DRAM access. These are the accesses whose
// latency accumulates into l_NUMA in the paper's Equation 1.
func (s DataSource) IsRemote() bool { return s == SrcRemoteCache || s == SrcRemoteDRAM }

// BeyondLocalL3 reports whether the access missed the entire local
// hierarchy (L1, L2, local L3). POWER7's PM_MRK_FROM_L3MISS marked
// event fires exactly for these accesses.
func (s DataSource) BeyondLocalL3() bool {
	return s == SrcRemoteCache || s == SrcLocalDRAM || s == SrcRemoteDRAM
}

// Config describes the geometry and on-chip latencies of the hierarchy.
// All caches use LRU replacement. The line size and every set count
// must be powers of two; way counts may be any positive number.
type Config struct {
	LineSize units.Bytes

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	L3Sets, L3Ways int

	// Hit latencies per level.
	L1Latency, L2Latency, L3Latency units.Cycles
	// RemoteCacheLatency is the extra snoop cost of hitting a remote
	// L3, on top of the fabric hop.
	RemoteCacheLatency units.Cycles
}

// DefaultConfig returns a deliberately small hierarchy (16 KiB L1,
// 128 KiB L2, 2 MiB shared L3) so simulated working sets in the tens of
// megabytes behave like real working sets in the gigabytes: large array
// sweeps miss, hot scalars hit.
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		L1Sets:   32, L1Ways: 8, // 16 KiB
		L2Sets: 256, L2Ways: 8, // 128 KiB
		L3Sets: 2048, L3Ways: 16, // 2 MiB
		L1Latency:          4,
		L2Latency:          12,
		L3Latency:          40,
		RemoteCacheLatency: 40,
	}
}

// level is one cache level of the whole machine: the tag arrays of all
// its caches (one per CPU for L1 and L2, one per domain for L3) stored
// back to back. Cache i owns sets [i*sets, (i+1)*sets); each set holds
// ways tags in MRU-first order. The simulator never needs the data
// itself, only the tags.
type level struct {
	// tags is zero for an empty way; stored tags are line+1 so that
	// line 0 is distinguishable from an empty way.
	tags     []uint64
	ways     int
	setMask  uint64
	perCache int // sets*ways: the tag-array stride from one cache to the next
}

func newLevel(caches, sets, ways int) level {
	if sets <= 0 || ways <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: invalid geometry sets=%d ways=%d", sets, ways))
	}
	return level{
		tags:     make([]uint64, caches*sets*ways),
		ways:     ways,
		setMask:  uint64(sets - 1),
		perCache: sets * ways,
	}
}

// access looks up line in cache c, returning true on hit. Hit or miss,
// the line becomes most-recently-used; on miss the LRU way is evicted.
// One pass does the lookup and the LRU update: each way it passes moves
// back one slot, so the pass stops at a hit with the tag re-inserted
// at the front, and a miss shifts the whole set, dropping the last way.
func (l *level) access(c int, line uint64) bool {
	tag := line + 1
	base := c*l.perCache + int(line&l.setMask)*l.ways
	// Full slice expression so the loop's bounds are proven once.
	ways := l.tags[base : base+l.ways : base+l.ways]
	carry := tag // the tag to store in the way being passed
	for i, t := range ways {
		ways[i] = carry
		if t == tag {
			return true
		}
		carry = t
	}
	return false
}

// Result describes one access through the hierarchy.
type Result struct {
	// Source is the level that satisfied the access.
	Source DataSource
	// OnChipLatency is the latency contribution of the cache levels
	// themselves (hit latency, or the lookup cost incurred before
	// going to DRAM). DRAM and fabric costs are added by the caller
	// from the mem and interconnect models so that contention can be
	// applied there.
	OnChipLatency units.Cycles
}

// Hierarchy is the full cache system of one machine.
type Hierarchy struct {
	cfg       Config
	lineShift uint  // log2(cfg.LineSize)
	l1, l2    level // one cache per CPU
	l3        level // one cache per domain
	// domainOf maps each CPU to its (always valid) domain, so the
	// access path does not go through the topology.
	domainOf   []topology.DomainID
	numDomains int

	// hit/miss statistics per source, for reporting.
	sourceCounts [numSources]uint64
}

// NewHierarchy builds the caches for a machine. It panics if the line
// size or a set count is not a power of two, or a way count is not
// positive.
func NewHierarchy(topo *topology.Machine, cfg Config) *Hierarchy {
	if cfg.LineSize == 0 {
		cfg = DefaultConfig()
	}
	if bits.OnesCount64(uint64(cfg.LineSize)) != 1 {
		panic(fmt.Sprintf("cache: invalid line size %d", cfg.LineSize))
	}
	cpus, domains := topo.NumCPUs(), topo.NumDomains()
	h := &Hierarchy{
		cfg:        cfg,
		lineShift:  uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		l1:         newLevel(cpus, cfg.L1Sets, cfg.L1Ways),
		l2:         newLevel(cpus, cfg.L2Sets, cfg.L2Ways),
		l3:         newLevel(domains, cfg.L3Sets, cfg.L3Ways),
		domainOf:   make([]topology.DomainID, cpus),
		numDomains: domains,
	}
	for c := range h.domainOf {
		h.domainOf[c] = topo.DomainOfCPU(topology.CPUID(c))
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access simulates one access by the given CPU to addr, where the page
// containing addr is homed in homeDomain. It returns the data source
// and on-chip latency. Access is NOT safe for concurrent use; the
// execution engine serialises accesses (see internal/proc).
//
// Degraded inputs never panic and never hide remote traffic: a CPU the
// topology does not map (negative or beyond NumCPUs) has no private
// caches or local L3 to probe, so its accesses classify purely by the
// page's home — SrcRemoteDRAM whenever homeDomain is valid (the access
// cannot be proven local), SrcLocalDRAM only when the home is unknown
// too.
func (h *Hierarchy) Access(cpu topology.CPUID, addr uint64, homeDomain topology.DomainID) Result {
	line := addr >> h.lineShift
	local := topology.NoDomain
	if cpu >= 0 && int(cpu) < len(h.domainOf) {
		local = h.domainOf[cpu]
		if h.l1.access(int(cpu), line) {
			h.sourceCounts[SrcL1]++
			return Result{SrcL1, h.cfg.L1Latency}
		}
		if h.l2.access(int(cpu), line) {
			h.sourceCounts[SrcL2]++
			return Result{SrcL2, h.cfg.L2Latency}
		}
		if h.l3.access(int(local), line) {
			h.sourceCounts[SrcL3]++
			return Result{SrcL3, h.cfg.L3Latency}
		}
	}
	// Missed the whole local hierarchy. Lookup cost so far:
	lookup := h.cfg.L3Latency
	if homeDomain != local && homeDomain >= 0 && int(homeDomain) < h.numDomains {
		// Snoop the home domain's L3 (a crude directory model: remote
		// data may be resident in its home L3 because the owner
		// domain's threads also touch it).
		if h.l3.access(int(homeDomain), line) {
			h.sourceCounts[SrcRemoteCache]++
			return Result{SrcRemoteCache, lookup + h.cfg.RemoteCacheLatency}
		}
	}
	// DRAM classification. A valid home that differs from the
	// accessing domain is remote — including when the CPU's own domain
	// is unknown (local == NoDomain), where claiming SrcLocalDRAM
	// would misclassify remote traffic as local. Only an unknown home
	// falls back to the local-DRAM cost model (mem.DRAMLatency applies
	// the same NoDomain convention).
	if homeDomain == topology.NoDomain || local == homeDomain {
		h.sourceCounts[SrcLocalDRAM]++
		return Result{SrcLocalDRAM, lookup}
	}
	h.sourceCounts[SrcRemoteDRAM]++
	return Result{SrcRemoteDRAM, lookup}
}

// SourceCounts returns lifetime access counts per data source.
func (h *Hierarchy) SourceCounts() map[DataSource]uint64 {
	out := make(map[DataSource]uint64, int(numSources))
	for s := DataSource(0); s < numSources; s++ {
		out[s] = h.sourceCounts[s]
	}
	return out
}

// Flush empties every cache and resets statistics. Used between the
// baseline and monitored runs of an experiment.
func (h *Hierarchy) Flush() {
	clear(h.l1.tags)
	clear(h.l2.tags)
	clear(h.l3.tags)
	h.sourceCounts = [numSources]uint64{}
}
