package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func TestAllocBasics(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(100, nil)
	if !r.Valid() {
		t.Fatal("allocation invalid")
	}
	if r.Base%uint64(units.PageSize) != 0 {
		t.Errorf("base %#x not page aligned", r.Base)
	}
	if !r.Contains(r.Base) || !r.Contains(r.Base+99) || r.Contains(r.Base+100) {
		t.Error("Contains boundaries wrong")
	}
	if z := as.Alloc(0, nil); z.Valid() {
		t.Error("zero-size allocation should be invalid")
	}
}

func TestAllocationsDontSharePages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	a := as.Alloc(10, nil)
	b := as.Alloc(10, nil)
	if units.PageOf(a.End()-1) == units.PageOf(b.Base) {
		t.Fatal("adjacent allocations share a page")
	}
}

func TestRegionOf(t *testing.T) {
	as := NewAddressSpace(testMachine())
	a := as.Alloc(5000, nil)
	b := as.Alloc(100, nil)
	if got, ok := as.RegionOf(a.Base + 4999); !ok || got.ID != a.ID {
		t.Errorf("RegionOf mid-a = %+v, %v", got, ok)
	}
	if got, ok := as.RegionOf(b.Base); !ok || got.ID != b.ID {
		t.Errorf("RegionOf b = %+v, %v", got, ok)
	}
	if _, ok := as.RegionOf(0); ok {
		t.Error("address 0 should be outside any allocation")
	}
	if _, ok := as.RegionOf(a.End()); ok {
		t.Error("one-past-end should be outside (guard page)")
	}
}

func TestFirstTouchHomesPageAtToucher(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*4, FirstTouch{})
	home, first, err := as.Touch(r.Base, true, 2)
	if err != nil || !first || home != 2 {
		t.Fatalf("first touch: home=%d first=%v err=%v, want 2,true,nil", home, first, err)
	}
	// Second touch by a different domain does not re-home.
	home, first, err = as.Touch(r.Base, false, 3)
	if err != nil || first || home != 2 {
		t.Fatalf("second touch: home=%d first=%v err=%v, want 2,false,nil", home, first, err)
	}
	// A different page of the same region first-touched elsewhere.
	home, first, _ = as.Touch(r.Base+uint64(units.PageSize), false, 3)
	if !first || home != 3 {
		t.Fatalf("other page: home=%d first=%v, want 3,true", home, first)
	}
}

func TestInterleavedPolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*8, Interleaved{})
	for p := uint64(0); p < 8; p++ {
		home, _, err := as.Touch(r.Base+p*ps, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := topology.DomainID(p % 4); home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestInterleavedExplicitDomains(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, Interleaved{Domains: []topology.DomainID{1, 3}})
	wants := []topology.DomainID{1, 3, 1, 3}
	for p, want := range wants {
		home, _, _ := as.Touch(r.Base+uint64(p)*ps, true, 0)
		if home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestOnNodePolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*3, OnNode{Domain: 3})
	for p := uint64(0); p < 3; p++ {
		home, _, _ := as.Touch(r.Base+p*uint64(units.PageSize), true, 0)
		if home != 3 {
			t.Errorf("page %d homed in %d, want 3", p, home)
		}
	}
}

func TestBlockedPolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	doms := []topology.DomainID{0, 1, 2, 3}
	r := as.Alloc(ps*8, Blocked{Domains: doms})
	wants := []topology.DomainID{0, 0, 1, 1, 2, 2, 3, 3}
	for p, want := range wants {
		home, _, _ := as.Touch(r.Base+uint64(p)*ps, false, 1)
		if home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestBlockedPolicyUnevenPages(t *testing.T) {
	// 7 pages over 4 domains: blocks may differ by one page but every
	// page must be placed and block indices must be non-decreasing.
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*7, Blocked{Domains: []topology.DomainID{0, 1, 2, 3}})
	prev := topology.DomainID(0)
	for p := uint64(0); p < 7; p++ {
		home, _, _ := as.Touch(r.Base+p*ps, false, 0)
		if home < prev {
			t.Errorf("page %d home %d decreased below %d", p, home, prev)
		}
		prev = home
	}
	if prev != 3 {
		t.Errorf("last page homed in %d, want 3", prev)
	}
}

func TestPageNode(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*2, nil)
	if d, err := as.PageNode(r.Base); err != nil || d != topology.NoDomain {
		t.Fatalf("untouched PageNode = %d, %v; want NoDomain, nil", d, err)
	}
	as.Touch(r.Base, true, 1)
	if d, err := as.PageNode(r.Base); err != nil || d != 1 {
		t.Fatalf("PageNode = %d, %v; want 1, nil", d, err)
	}
	if _, err := as.PageNode(0x1); err != ErrOutOfRange {
		t.Fatalf("PageNode outside = %v, want ErrOutOfRange", err)
	}
}

func TestTouchOutOfRange(t *testing.T) {
	as := NewAddressSpace(testMachine())
	if _, _, err := as.Touch(0x1, false, 0); err != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestProtectInteriorPagesOnly(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, nil)
	// Protect a range starting mid-page: the partial first page must
	// be skipped.
	n := as.Protect(r.Base+100, ps*3, ProtNone)
	if n != 2 {
		t.Fatalf("protected %d pages, want 2 (partials skipped)", n)
	}
	if as.ProtectionOf(r.Base) != ProtRW {
		t.Error("partial leading page should stay RW")
	}
	if as.ProtectionOf(r.Base+ps) != ProtNone {
		t.Error("first full page should be protected")
	}
}

func TestProtectWholePages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*3, nil)
	if n := as.Protect(r.Base, ps*3, ProtNone); n != 3 {
		t.Fatalf("protected %d pages, want 3", n)
	}
}

func TestFaultDeliveryAndRetry(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*2, nil)
	as.Protect(r.Base, ps*2, ProtNone)

	var faults []Fault
	as.SetFaultHandler(func(f Fault) {
		faults = append(faults, f)
		as.Unprotect(f.Addr) // handler must restore access
	})

	home, first, err := as.Touch(r.Base+8, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatalf("got %d faults, want 1", len(faults))
	}
	f := faults[0]
	if f.Addr != r.Base+8 || !f.IsWrite || f.Region.ID != r.ID {
		t.Errorf("fault = %+v", f)
	}
	if !first || home != 2 {
		t.Errorf("touch after fault: home=%d first=%v", home, first)
	}
	// Subsequent access to the unprotected page: no new fault.
	as.Touch(r.Base+16, false, 2)
	if len(faults) != 1 {
		t.Errorf("unprotected access faulted again: %d faults", len(faults))
	}
	// The second page is still protected.
	as.Touch(r.Base+ps, false, 1)
	if len(faults) != 2 {
		t.Errorf("second page should fault: %d faults", len(faults))
	}
}

func TestNoHandlerIgnoresProtection(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps, nil)
	as.Protect(r.Base, ps, ProtNone)
	if _, _, err := as.Touch(r.Base, false, 0); err != nil {
		t.Fatalf("touch with no handler: %v", err)
	}
}

func TestFree(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize), nil)
	as.Touch(r.Base, true, 0)
	as.Free(r)
	if !as.Freed(r) {
		t.Fatal("region not marked freed")
	}
	if _, _, err := as.Touch(r.Base, false, 0); err != ErrOutOfRange {
		t.Fatalf("touch after free = %v, want ErrOutOfRange", err)
	}
	as.Free(r) // double free is a no-op
}

func TestDomainPages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, Interleaved{})
	for p := uint64(0); p < 4; p++ {
		as.Touch(r.Base+p*ps, true, 0)
	}
	counts := as.DomainPages()
	for d, c := range counts {
		if c != 1 {
			t.Errorf("domain %d has %d pages, want 1", d, c)
		}
	}
}

func TestPolicyOf(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(100, OnNode{Domain: 2})
	if p := as.PolicyOf(r); p == nil || p.Name() != "on-node-2" {
		t.Fatalf("PolicyOf = %v", p)
	}
	if p := as.PolicyOf(Region{ID: -1}); p != nil {
		t.Error("PolicyOf invalid region should be nil")
	}
}

// TestFirstTouchHomeStable interleaves touches by threads in every
// domain over a region's pages: each page is homed in the domain of its
// first toucher, and later touches from any domain neither re-home it
// nor report a first touch again.
func TestFirstTouchHomeStable(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*64, FirstTouch{})
	firstToucher := make([]topology.DomainID, 64)
	for i := range firstToucher {
		firstToucher[i] = topology.NoDomain
	}
	for g := 0; g < 8; g++ {
		d := topology.DomainID(g % 4)
		for p := uint64(0); p < 64; p++ {
			// Thread g starts at page 8g, so pages get different first
			// touchers.
			page := (p + uint64(8*g)) % 64
			home, first, err := as.Touch(r.Base+page*ps, false, d)
			if err != nil {
				t.Fatalf("touch: %v", err)
			}
			if first != (firstToucher[page] == topology.NoDomain) {
				t.Fatalf("page %d: first = %v on touch by thread %d", page, first, g)
			}
			if first {
				firstToucher[page] = d
			}
			if home != firstToucher[page] {
				t.Fatalf("page %d: home %d, want first toucher's domain %d", page, home, firstToucher[page])
			}
		}
	}
	for p := uint64(0); p < 64; p++ {
		if d, _ := as.PageNode(r.Base + p*ps); d != firstToucher[p] {
			t.Fatalf("page %d: PageNode %d, want %d", p, d, firstToucher[p])
		}
	}
}

// Property: Blocked placement maps every page to a valid domain and
// assigns each domain a contiguous page range.
func TestQuickBlockedContiguous(t *testing.T) {
	f := func(nPages uint8, nDoms uint8) bool {
		np := uint64(nPages%64) + 1
		nd := int(nDoms%8) + 1
		doms := make([]topology.DomainID, nd)
		for i := range doms {
			doms[i] = topology.DomainID(i)
		}
		p := Blocked{Domains: doms}
		prev := topology.DomainID(0)
		for i := uint64(0); i < np; i++ {
			d := p.PlacePage(i, np, 0)
			if d < 0 || int(d) >= nd {
				return false
			}
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: first-touch homes are sticky — the home returned by the
// first Touch is returned by every later Touch regardless of toucher.
func TestQuickFirstTouchSticky(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*256, FirstTouch{})
	f := func(pageIdx uint8, d1, d2 uint8) bool {
		addr := r.Base + uint64(pageIdx)*uint64(units.PageSize)
		h1, _, err := as.Touch(addr, false, topology.DomainID(d1%4))
		if err != nil {
			return false
		}
		h2, first2, err := as.Touch(addr, true, topology.DomainID(d2%4))
		return err == nil && h1 == h2 && !first2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A fault handler that forgets to unprotect must not hang the
// simulation: after one delivery the access is retried and proceeds
// (a real program would SIGSEGV-loop; the simulator opts for forward
// progress so a buggy tool can't wedge an experiment).
func TestMisbehavingFaultHandlerDoesNotHang(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize), nil)
	as.Protect(r.Base, uint64(units.PageSize), ProtNone)
	faults := 0
	as.SetFaultHandler(func(Fault) { faults++ }) // never unprotects
	if _, _, err := as.Touch(r.Base, true, 0); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", faults)
	}
	// The page stays protected (the handler's bug), and the next
	// access faults again — still exactly once per access.
	if _, _, err := as.Touch(r.Base, false, 0); err != nil {
		t.Fatal(err)
	}
	if faults != 2 {
		t.Fatalf("handler ran %d times across two accesses, want 2", faults)
	}
}
