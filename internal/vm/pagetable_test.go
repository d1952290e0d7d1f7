package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// refSpace is a reference model of AddressSpace: a map of page number
// to page state covering any address, a binary search over regions for
// address-to-region resolution, and a map of freed region IDs. It is
// deliberately the simplest structure with the documented semantics, so
// the dense page table can be checked against it step by step.
type refSpace struct {
	next       uint64
	pages      map[uint64]*refPage
	regions    []Region
	policies   []Policy
	freed      map[int]bool
	handler    FaultHandler
	allDomains []topology.DomainID
	numDomains int
}

type refPage struct {
	home    topology.DomainID
	prot    Protection
	touched bool
}

func newRefSpace(topo *topology.Machine) *refSpace {
	m := &refSpace{
		next:       heapBase,
		pages:      make(map[uint64]*refPage),
		freed:      make(map[int]bool),
		numDomains: topo.NumDomains(),
	}
	for d := 0; d < topo.NumDomains(); d++ {
		m.allDomains = append(m.allDomains, topology.DomainID(d))
	}
	return m
}

func (m *refSpace) page(p uint64) *refPage {
	pg := m.pages[p]
	if pg == nil {
		pg = &refPage{home: topology.NoDomain, prot: ProtRW}
		m.pages[p] = pg
	}
	return pg
}

func (m *refSpace) Alloc(size uint64, policy Policy) Region {
	if size == 0 {
		return Region{}
	}
	if policy == nil {
		policy = FirstTouch{}
	}
	r := Region{Base: m.next, Size: size, ID: len(m.regions)}
	m.next += (units.PagesSpanned(r.Base, size) + 1) * uint64(units.PageSize)
	m.regions = append(m.regions, r)
	m.policies = append(m.policies, policy)
	return r
}

func (m *refSpace) Free(r Region) {
	if !r.Valid() || r.ID < 0 || r.ID >= len(m.regions) || m.freed[r.ID] {
		return
	}
	m.freed[r.ID] = true
	for p := units.PageOf(r.Base); p <= units.PageOf(r.End()-1); p++ {
		delete(m.pages, p)
	}
}

func (m *refSpace) RegionOf(addr uint64) (Region, bool) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].Base > addr })
	if i == 0 {
		return Region{}, false
	}
	r := m.regions[i-1]
	if !r.Contains(addr) || m.freed[r.ID] {
		return Region{}, false
	}
	return r, true
}

func (m *refSpace) TouchRegion(addr uint64, isWrite bool, touch topology.DomainID) (topology.DomainID, bool, Region, bool, error) {
	for attempt := 0; ; attempt++ {
		r, ok := m.RegionOf(addr)
		if !ok {
			return topology.NoDomain, false, Region{}, false, ErrOutOfRange
		}
		p := units.PageOf(addr)
		if pg := m.pages[p]; pg != nil && pg.prot != ProtRW && m.handler != nil && attempt == 0 {
			m.handler(Fault{Addr: addr, IsWrite: isWrite, Region: r})
			continue
		}
		pg := m.page(p)
		first := !pg.touched
		if first {
			pg.touched = true
			idx := p - units.PageOf(r.Base)
			home := m.policies[r.ID].PlacePage(idx, units.PagesSpanned(r.Base, r.Size), touch)
			if home == topology.NoDomain {
				if _, isIL := m.policies[r.ID].(Interleaved); isIL {
					home = m.allDomains[idx%uint64(len(m.allDomains))]
				} else {
					home = touch
				}
			}
			if home == topology.NoDomain {
				home = 0
			}
			pg.home = home
		}
		return pg.home, first, r, true, nil
	}
}

func (m *refSpace) PageNode(addr uint64) (topology.DomainID, error) {
	if _, ok := m.RegionOf(addr); !ok {
		return topology.NoDomain, ErrOutOfRange
	}
	if pg := m.pages[units.PageOf(addr)]; pg != nil && pg.touched {
		return pg.home, nil
	}
	return topology.NoDomain, nil
}

func (m *refSpace) Protect(base, size uint64, prot Protection) int {
	if size == 0 {
		return 0
	}
	ps := uint64(units.PageSize)
	n := 0
	for p := (base + ps - 1) / ps; p < (base+size)/ps; p++ {
		m.page(p).prot = prot
		n++
	}
	return n
}

func (m *refSpace) Unprotect(addr uint64) {
	if pg := m.pages[units.PageOf(addr)]; pg != nil {
		pg.prot = ProtRW
	}
}

func (m *refSpace) ProtectionOf(addr uint64) Protection {
	if pg := m.pages[units.PageOf(addr)]; pg != nil {
		return pg.prot
	}
	return ProtRW
}

func (m *refSpace) DomainPages() []uint64 {
	out := make([]uint64, m.numDomains)
	for _, pg := range m.pages {
		if pg.touched && pg.home >= 0 && int(pg.home) < len(out) {
			out[pg.home]++
		}
	}
	return out
}

func (m *refSpace) SetPolicy(r Region, p Policy) {
	if p != nil && r.ID >= 0 && r.ID < len(m.policies) {
		m.policies[r.ID] = p
	}
}

// TestPageTableMatchesReferenceModel drives the dense page table and
// the reference model through the same seeded random operation
// sequences — allocations (size 0 included), frees and double frees,
// policy changes, protection of partial, guard and out-of-heap pages,
// unprotection, and touches with and without a fault handler — and
// after every step requires every query to agree.
func TestPageTableMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPageTableDifferential(t, seed, 400) })
	}
}

func runPageTableDifferential(t *testing.T, seed int64, steps int) {
	topo := testMachine()
	as, m := NewAddressSpace(topo), newRefSpace(topo)
	rng := rand.New(rand.NewSource(seed))
	ps := uint64(units.PageSize)

	// The two fault handlers log what they see and restore access on
	// all but every third fault, so both the handler-fixes-it retry and
	// the misbehaving-handler path run. Every fifth fault also allocates
	// (growing the page table under the faulting access) and every
	// seventh frees the faulting region before the retry.
	var gotFaults, wantFaults []Fault
	handler := func(space interface {
		Unprotect(uint64)
		Alloc(uint64, Policy) Region
		Free(Region)
	}, log *[]Fault) FaultHandler {
		return func(f Fault) {
			*log = append(*log, f)
			n := len(*log)
			if n%3 != 0 {
				space.Unprotect(f.Addr)
			}
			if n%5 == 0 {
				space.Alloc(3*uint64(units.PageSize), nil)
			}
			if n%7 == 0 {
				space.Free(f.Region)
			}
		}
	}
	asHandler, mHandler := handler(as, &gotFaults), handler(m, &wantFaults)

	policies := []func() Policy{
		func() Policy { return nil },
		func() Policy { return FirstTouch{} },
		func() Policy { return Interleaved{} },
		func() Policy { return Interleaved{Domains: []topology.DomainID{3, 1}} },
		func() Policy { return OnNode{Domain: topology.DomainID(rng.Intn(4))} },
		func() Policy { return Blocked{Domains: []topology.DomainID{0, 1, 2, 3}} },
	}
	// anyAddr picks an address inside or just past a region (its last
	// page's tail or its guard page), or outside the heap: below
	// heapBase (page-aligned half the time), or beyond the allocation
	// cursor.
	anyAddr := func() uint64 {
		switch k := rng.Intn(10); {
		case k == 0:
			if rng.Intn(2) == 0 {
				return uint64(rng.Intn(heapPage)) * ps
			}
			return uint64(rng.Int63n(heapBase))
		case k == 1:
			return m.next + uint64(rng.Int63n(int64(4*ps)))
		case len(m.regions) == 0:
			return heapBase + uint64(rng.Int63n(int64(4*ps)))
		}
		r := m.regions[rng.Intn(len(m.regions))]
		return r.Base + uint64(rng.Int63n(int64((units.PagesSpanned(r.Base, r.Size)+1)*ps)))
	}
	// anyRegion picks a known region (live or freed), or a forged one:
	// a known region's extent or an arbitrary range, under any ID.
	anyRegion := func() Region {
		if len(m.regions) > 0 && rng.Intn(5) != 0 {
			return m.regions[rng.Intn(len(m.regions))]
		}
		r := Region{Base: anyAddr(), Size: uint64(rng.Int63n(int64(3 * ps))), ID: rng.Intn(len(m.regions)+2) - 1}
		if len(m.regions) > 0 && rng.Intn(2) == 0 {
			k := m.regions[rng.Intn(len(m.regions))]
			r.Base, r.Size = k.Base, k.Size
		}
		return r
	}
	domain := func() topology.DomainID {
		if rng.Intn(20) == 0 {
			return topology.NoDomain
		}
		return topology.DomainID(rng.Intn(4))
	}

	for step := 0; step < steps; step++ {
		var op string
		switch k := rng.Intn(100); {
		case k < 12:
			var size uint64
			switch rng.Intn(4) {
			case 0:
				size = 0
			case 1:
				size = uint64(1 + rng.Intn(int(ps)))
			case 2:
				size = uint64(1+rng.Intn(6)) * ps
			default:
				size = uint64(1 + rng.Intn(int(6*ps)))
			}
			pol := policies[rng.Intn(len(policies))]()
			got, want := as.Alloc(size, pol), m.Alloc(size, pol)
			op = fmt.Sprintf("Alloc(%d, %v)", size, pol)
			if got != want {
				t.Fatalf("step %d %s = %+v, want %+v", step, op, got, want)
			}
		case k < 18:
			r := anyRegion()
			op = fmt.Sprintf("Free(%+v)", r)
			as.Free(r)
			m.Free(r)
		case k < 23:
			r, pol := anyRegion(), policies[rng.Intn(len(policies))]()
			op = fmt.Sprintf("SetPolicy(%+v, %v)", r, pol)
			as.SetPolicy(r, pol)
			m.SetPolicy(r, pol)
		case k < 33:
			base := anyAddr()
			size := uint64(rng.Int63n(int64(5 * ps)))
			prot := []Protection{ProtNone, ProtRead, ProtWrite}[rng.Intn(3)]
			op = fmt.Sprintf("Protect(%#x, %d, %d)", base, size, prot)
			if got, want := as.Protect(base, size, prot), m.Protect(base, size, prot); got != want {
				t.Fatalf("step %d %s = %d, want %d", step, op, got, want)
			}
		case k < 38:
			addr := anyAddr()
			op = fmt.Sprintf("Unprotect(%#x)", addr)
			as.Unprotect(addr)
			m.Unprotect(addr)
		case k < 42:
			if rng.Intn(2) == 0 {
				op = "SetFaultHandler(nil)"
				as.SetFaultHandler(nil)
				m.handler = nil
			} else {
				op = "SetFaultHandler(h)"
				as.SetFaultHandler(asHandler)
				m.handler = mHandler
			}
		default:
			addr, isWrite, d := anyAddr(), rng.Intn(2) == 0, domain()
			op = fmt.Sprintf("TouchRegion(%#x, %v, %d)", addr, isWrite, d)
			h1, f1, r1, ok1, err1 := as.TouchRegion(addr, isWrite, d)
			h2, f2, r2, ok2, err2 := m.TouchRegion(addr, isWrite, d)
			if h1 != h2 || f1 != f2 || r1 != r2 || ok1 != ok2 || err1 != err2 {
				t.Fatalf("step %d %s = (%d, %v, %+v, %v, %v), want (%d, %v, %+v, %v, %v)",
					step, op, h1, f1, r1, ok1, err1, h2, f2, r2, ok2, err2)
			}
			if !reflect.DeepEqual(gotFaults, wantFaults) {
				t.Fatalf("step %d %s: faults %+v, want %+v", step, op, gotFaults, wantFaults)
			}
		}
		checkAgainstModel(t, as, m, step, op)
	}
}

// checkAgainstModel compares every query at the interesting addresses
// of the current layout: each region's first byte, last byte, first
// byte past it, a byte in its guard page, addresses outside the heap,
// and every page either side holds state for.
func checkAgainstModel(t *testing.T, as *AddressSpace, m *refSpace, step int, op string) {
	t.Helper()
	ps := uint64(units.PageSize)
	addrs := []uint64{0, 1, heapBase - 1, heapBase, m.next, m.next + 2*ps + 7}
	for p := range m.pages {
		addrs = append(addrs, p*ps)
	}
	for p := range as.outside {
		addrs = append(addrs, p*ps)
	}
	for _, r := range m.regions {
		addrs = append(addrs, r.Base, r.End()-1, r.End(), units.PageBase(r.End()-1)+ps+3)
		if got, want := as.Freed(r), m.freed[r.ID]; got != want {
			t.Fatalf("step %d after %s: Freed(%+v) = %v, want %v", step, op, r, got, want)
		}
		if got, want := as.PolicyOf(r), m.policies[r.ID]; !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d after %s: PolicyOf(%+v) = %v, want %v", step, op, r, got, want)
		}
	}
	for _, a := range addrs {
		gr, gok := as.RegionOf(a)
		wr, wok := m.RegionOf(a)
		if gr != wr || gok != wok {
			t.Fatalf("step %d after %s: RegionOf(%#x) = %+v, %v; want %+v, %v", step, op, a, gr, gok, wr, wok)
		}
		gd, gerr := as.PageNode(a)
		wd, werr := m.PageNode(a)
		if gd != wd || gerr != werr {
			t.Fatalf("step %d after %s: PageNode(%#x) = %d, %v; want %d, %v", step, op, a, gd, gerr, wd, werr)
		}
		if got, want := as.ProtectionOf(a), m.ProtectionOf(a); got != want {
			t.Fatalf("step %d after %s: ProtectionOf(%#x) = %d, want %d", step, op, a, got, want)
		}
	}
	if got, want := as.DomainPages(), m.DomainPages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d after %s: DomainPages = %v, want %v", step, op, got, want)
	}
	if got := as.Regions(); !reflect.DeepEqual(got, m.regions) && !(len(got) == 0 && len(m.regions) == 0) {
		t.Fatalf("step %d after %s: Regions = %+v, want %+v", step, op, got, m.regions)
	}
}
