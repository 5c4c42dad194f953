package pdpi

import (
	"sort"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
	"switchv/models"
)

// nexthopEntry is a nexthop_table entry keyed by id whose action
// arguments carry tag, so a Modify is visible in the stored pointer.
func nexthopEntry(t *testing.T, id, tag uint64) *Entry {
	t.Helper()
	p := models.Middleblock()
	tbl, _ := p.TableByName("nexthop_table")
	act, _ := p.ActionByName("set_nexthop")
	return &Entry{
		Table:   tbl,
		Matches: []Match{{Key: "nexthop_id", Kind: ir.MatchExact, Value: value.New(id, 10)}},
		Action:  &ActionInvocation{Action: act, Args: []value.V{value.New(tag, 10), value.New(tag, 10)}},
	}
}

func vrfEntry(t *testing.T, id uint64) *Entry {
	t.Helper()
	p := models.Middleblock()
	tbl, _ := p.TableByName("vrf_table")
	return &Entry{
		Table:   tbl,
		Matches: []Match{{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(id, 10)}},
		Action:  &ActionInvocation{Action: p.NoAction},
	}
}

// keysOf renders entries as their match keys, in order.
func keysOf(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Key()
	}
	return out
}

func wantOrder(t *testing.T, what string, got []*Entry, want ...*Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries %v, want %d %v", what, len(got), keysOf(got), len(want), keysOf(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds %s (%p), want %s (%p)\n got %v\nwant %v",
				what, i, got[i].Key(), got[i], want[i].Key(), want[i], keysOf(got), keysOf(want))
		}
	}
}

func TestStoreInsertionOrder(t *testing.T) {
	s := NewStore()
	n1, n2, n3 := nexthopEntry(t, 1, 1), nexthopEntry(t, 2, 2), nexthopEntry(t, 3, 3)
	// Inserted out of key order: the store keeps insertion order, not
	// key order.
	for _, e := range []*Entry{n3, n1, n2} {
		if err := s.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	wantOrder(t, "after inserts", s.Entries("nexthop_table"), n3, n1, n2)

	// Modify replaces the stored entry but keeps its position.
	n1b := nexthopEntry(t, 1, 7)
	if err := s.Modify(n1b); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, "after modify", s.Entries("nexthop_table"), n3, n1b, n2)
	if got, _ := s.Get(n1); got != n1b {
		t.Fatalf("Get after modify returned %v, want the modified entry", got)
	}

	// Delete, interleaved with a fresh insert, then re-insert: the
	// re-inserted entry goes last.
	if err := s.Delete(n3); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, "after delete", s.Entries("nexthop_table"), n1b, n2)
	n4 := nexthopEntry(t, 4, 4)
	if err := s.Insert(n4); err != nil {
		t.Fatal(err)
	}
	n3b := nexthopEntry(t, 3, 9)
	if err := s.Insert(n3b); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, "after re-insert", s.Entries("nexthop_table"), n1b, n2, n4, n3b)
	wantOrder(t, "All", s.All(nil), n1b, n2, n4, n3b)

	// A modify after the re-insert still keeps every position.
	n2b := nexthopEntry(t, 2, 8)
	if err := s.Modify(n2b); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, "after second modify", s.Entries("nexthop_table"), n1b, n2b, n4, n3b)

	// Failed mutations change nothing.
	if err := s.Insert(nexthopEntry(t, 4, 5)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := s.Modify(nexthopEntry(t, 9, 9)); err == nil {
		t.Fatal("modify of a missing entry succeeded")
	}
	if err := s.Delete(nexthopEntry(t, 9, 9)); err == nil {
		t.Fatal("delete of a missing entry succeeded")
	}
	wantOrder(t, "after failed mutations", s.Entries("nexthop_table"), n1b, n2b, n4, n3b)
	if s.Len() != 4 || s.TableLen("nexthop_table") != 4 || s.TableLen("vrf_table") != 0 {
		t.Fatalf("Len %d TableLen %d", s.Len(), s.TableLen("nexthop_table"))
	}
}

func TestStoreEntriesCache(t *testing.T) {
	s := NewStore()
	n1, n2 := nexthopEntry(t, 1, 1), nexthopEntry(t, 2, 2)
	s.Insert(n1)
	s.Insert(n2)
	a, b := s.Entries("nexthop_table"), s.Entries("nexthop_table")
	if &a[0] != &b[0] {
		t.Fatal("Entries rebuilt an unchanged table")
	}
	// A mutation of another table leaves this table's cached order alone.
	s.Insert(vrfEntry(t, 1))
	if c := s.Entries("nexthop_table"); &c[0] != &a[0] {
		t.Fatal("a mutation of vrf_table dropped nexthop_table's cached order")
	}
	// A mutation of the table invalidates it; the old slice is untouched.
	s.Delete(n1)
	wantOrder(t, "old slice", a, n1, n2)
	wantOrder(t, "new slice", s.Entries("nexthop_table"), n2)
	if got := s.Entries("no_such_table"); len(got) != 0 {
		t.Fatalf("unknown table: %v", got)
	}
}

func TestStoreAllGrouping(t *testing.T) {
	prog := models.Middleblock()
	s := NewStore()
	v2, n1, v1, n2 := vrfEntry(t, 2), nexthopEntry(t, 1, 1), vrfEntry(t, 1), nexthopEntry(t, 2, 2)
	p := ipv4Entry(t, 1, 0x0a000000, 8)
	for _, e := range []*Entry{n1, v2, p, n2, v1} {
		if err := s.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// With a program: tables in declaration order, entries in insertion
	// order within each table.
	rank := map[string]int{}
	for i, tbl := range prog.Tables {
		rank[tbl.Name] = i
	}
	byProgram := []*Entry{v2, v1, p, n1, n2}
	sort.SliceStable(byProgram, func(i, j int) bool {
		return rank[byProgram[i].Table.Name] < rank[byProgram[j].Table.Name]
	})
	wantOrder(t, "All(prog)", s.All(prog), byProgram...)

	// Without one: tables by name ("ipv4_table" < "nexthop_table" <
	// "vrf_table").
	wantOrder(t, "All(nil)", s.All(nil), p, n1, n2, v2, v1)
	if got := NewStore().All(prog); len(got) != 0 {
		t.Fatalf("empty store: %v", got)
	}
}

func TestStoreClone(t *testing.T) {
	s := NewStore()
	n1, n2, n3 := nexthopEntry(t, 1, 1), nexthopEntry(t, 2, 2), nexthopEntry(t, 3, 3)
	for _, e := range []*Entry{n2, n3, n1} {
		s.Insert(e)
	}
	s.Entries("nexthop_table") // warm the original's cache
	c := s.Clone()
	wantOrder(t, "clone", c.Entries("nexthop_table"), n2, n3, n1)
	if c.Generation() != s.Generation() || c.TableVersion("nexthop_table") != s.TableVersion("nexthop_table") {
		t.Fatal("clone does not carry the generation counters")
	}
	for _, e := range []*Entry{n2, n3, n1} {
		if c.Seq(e) != s.Seq(e) {
			t.Fatalf("clone Seq(%s) = %d, want %d", e.Key(), c.Seq(e), s.Seq(e))
		}
	}

	// Mutating the clone leaves the original alone, and a fresh insert
	// into the clone still sorts after the copied entries.
	c.Delete(n3)
	n3b := nexthopEntry(t, 3, 9)
	c.Insert(n3b)
	n4 := nexthopEntry(t, 4, 4)
	c.Insert(n4)
	c.Modify(nexthopEntry(t, 2, 6))
	wantOrder(t, "original after clone mutation", s.Entries("nexthop_table"), n2, n3, n1)
	if got := keysOf(c.Entries("nexthop_table")); len(got) != 4 ||
		got[0] != n2.Key() || got[1] != n1.Key() || got[2] != n3b.Key() || got[3] != n4.Key() {
		t.Fatalf("clone order %v", got)
	}
	if got, _ := s.Get(n2); got != n2 {
		t.Fatal("modify of the clone reached the original")
	}

	// And the other way round.
	s.Delete(n1)
	if _, ok := c.Get(n1); !ok {
		t.Fatal("delete from the original reached the clone")
	}
}

func TestStoreClearAndVersions(t *testing.T) {
	s := NewStore()
	if s.Generation() != 0 || s.TableVersion("nexthop_table") != 0 {
		t.Fatal("fresh store has non-zero counters")
	}
	n1, n2 := nexthopEntry(t, 1, 1), nexthopEntry(t, 2, 2)
	gen, ver := s.Generation(), s.TableVersion("nexthop_table")
	step := func(what string, table string, mutate func() error, wantBump bool) {
		t.Helper()
		err := mutate()
		g, v := s.Generation(), s.TableVersion(table)
		if wantBump {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if g <= gen || v <= ver {
				t.Fatalf("%s: generation %d->%d, version %d->%d; want both to grow", what, gen, g, ver, v)
			}
		} else if g != gen || v != ver {
			t.Fatalf("%s: counters moved on a failed mutation", what)
		}
		gen, ver = g, v
	}
	step("insert", "nexthop_table", func() error { return s.Insert(n1) }, true)
	step("insert", "nexthop_table", func() error { return s.Insert(n2) }, true)
	step("dup insert", "nexthop_table", func() error { return s.Insert(n2) }, false)
	step("modify", "nexthop_table", func() error { return s.Modify(nexthopEntry(t, 1, 3)) }, true)
	step("delete", "nexthop_table", func() error { return s.Delete(n2) }, true)

	vrfVer := s.TableVersion("vrf_table")
	s.Insert(vrfEntry(t, 1))
	if s.TableVersion("vrf_table") <= vrfVer || s.TableVersion("nexthop_table") != ver {
		t.Fatal("a vrf_table insert must bump vrf_table only")
	}
	gen = s.Generation()
	vrfVer = s.TableVersion("vrf_table")

	s.Clear()
	if s.Len() != 0 || len(s.All(nil)) != 0 || len(s.Entries("nexthop_table")) != 0 {
		t.Fatal("Clear left entries behind")
	}
	if s.Generation() <= gen || s.TableVersion("nexthop_table") <= ver || s.TableVersion("vrf_table") <= vrfVer {
		t.Fatal("Clear must bump the generation and every touched table's version")
	}
	if s.Seq(n1) != 0 {
		t.Fatal("Seq of a cleared entry is non-zero")
	}

	// Versions keep counting up across the refill; insertion sequence
	// numbers start over.
	ver = s.TableVersion("nexthop_table")
	s.Insert(n2)
	s.Insert(n1)
	if s.TableVersion("nexthop_table") <= ver {
		t.Fatal("version went back after Clear")
	}
	if s.Seq(n2) != 1 || s.Seq(n1) != 2 {
		t.Fatalf("Seq after Clear: %d, %d; want 1, 2", s.Seq(n2), s.Seq(n1))
	}
	wantOrder(t, "refill", s.Entries("nexthop_table"), n2, n1)
}

func TestStoreSeq(t *testing.T) {
	s := NewStore()
	n1, n2, n3 := nexthopEntry(t, 1, 1), nexthopEntry(t, 2, 2), nexthopEntry(t, 3, 3)
	if s.Seq(n1) != 0 {
		t.Fatal("Seq of an uninstalled entry is non-zero")
	}
	s.Insert(n1)
	s.Insert(vrfEntry(t, 1)) // sequence numbers are store-wide
	s.Insert(n2)
	s.Insert(n3)
	if s.Seq(n1) != 1 || s.Seq(n2) != 3 || s.Seq(n3) != 4 {
		t.Fatalf("Seq = %d, %d, %d; want 1, 3, 4", s.Seq(n1), s.Seq(n2), s.Seq(n3))
	}
	// Seq looks entries up by match: a modified action keeps the number.
	s.Modify(nexthopEntry(t, 2, 5))
	if s.Seq(n2) != 3 {
		t.Fatalf("Seq after modify = %d, want 3", s.Seq(n2))
	}
	s.Delete(n1)
	if s.Seq(n1) != 0 {
		t.Fatal("Seq of a deleted entry is non-zero")
	}
	s.Insert(n1)
	if s.Seq(n1) != 5 {
		t.Fatalf("Seq after re-insert = %d, want 5", s.Seq(n1))
	}
}
