package pdpi

import (
	"strings"
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/value"
	"switchv/models"
)

func ipv4Entry(t *testing.T, vrf uint64, prefix uint64, plen int) *Entry {
	t.Helper()
	p := models.Middleblock()
	tbl, _ := p.TableByName("ipv4_table")
	act, _ := p.ActionByName("set_nexthop_id")
	return &Entry{
		Table: tbl,
		Matches: []Match{
			{Key: "vrf_id", Kind: ir.MatchExact, Value: value.New(vrf, 10)},
			{Key: "ipv4_dst", Kind: ir.MatchLPM, Value: value.New(prefix, 32), PrefixLen: plen},
		},
		Action: &ActionInvocation{Action: act, Args: []value.V{value.New(1, 10)}},
	}
}

func TestValidateOK(t *testing.T) {
	e := ipv4Entry(t, 1, 0x0a000000, 8)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	p := models.Middleblock()
	aclTbl, _ := p.TableByName("acl_ingress_table")
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthop, _ := p.ActionByName("set_nexthop_id")
	aclDrop, _ := p.ActionByName("acl_drop")

	cases := []struct {
		name    string
		mutate  func(*Entry)
		wantSub string
	}{
		{"unknown key", func(e *Entry) { e.Matches[0].Key = "bogus" }, "no key"},
		{"duplicate key", func(e *Entry) { e.Matches = append(e.Matches, e.Matches[0]) }, "duplicate"},
		{"wrong kind", func(e *Entry) { e.Matches[0].Kind = ir.MatchLPM }, "is exact"},
		{"wrong width", func(e *Entry) { e.Matches[0].Value = value.New(1, 8) }, "width"},
		{"prefix out of range", func(e *Entry) { e.Matches[1].PrefixLen = 40 }, "prefix length"},
		{"bits below prefix", func(e *Entry) {
			e.Matches[1].Value = value.New(0x0a000001, 32)
			e.Matches[1].PrefixLen = 8
		}, "below the prefix"},
		{"missing mandatory", func(e *Entry) { e.Matches = e.Matches[:1] }, "mandatory"},
		{"priority on exact table", func(e *Entry) { e.Priority = 5 }, "does not use priorities"},
		{"bad action", func(e *Entry) { e.Action.Action = aclDrop }, "not permitted"},
		{"arg count", func(e *Entry) { e.Action.Args = nil }, "takes 1 args"},
		{"arg width", func(e *Entry) { e.Action.Args = []value.V{value.New(1, 8)} }, "width"},
		{"no action", func(e *Entry) { e.Action = nil }, "no action"},
		{"action set on plain table", func(e *Entry) {
			e.ActionSet = []WeightedAction{{ActionInvocation: *e.Action, Weight: 1}}
			e.Action = nil
		}, "not a selector"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := ipv4Entry(t, 1, 0x0a000000, 8)
			c.mutate(e)
			err := e.Validate()
			if err == nil {
				t.Fatal("Validate succeeded")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}

	// Ternary-specific checks.
	tern := &Entry{
		Table: aclTbl,
		Matches: []Match{
			{Key: "ttl", Kind: ir.MatchTernary, Value: value.New(0, 8), Mask: value.Zero(8)},
		},
		Priority: 1,
		Action:   &ActionInvocation{Action: aclDrop},
	}
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "zero mask") {
		t.Errorf("zero mask: %v", err)
	}
	tern.Matches[0].Mask = value.New(0x0f, 8)
	tern.Matches[0].Value = value.New(0xf0, 8)
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "outside the mask") {
		t.Errorf("value outside mask: %v", err)
	}
	tern.Matches[0].Value = value.New(0x0a, 8)
	if err := tern.Validate(); err != nil {
		t.Errorf("canonical ternary rejected: %v", err)
	}
	tern.Priority = 0
	if err := tern.Validate(); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("zero priority: %v", err)
	}

	// Selector table checks.
	sel := &Entry{
		Table:   wcmpTbl,
		Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		ActionSet: []WeightedAction{
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(2, 10)}}, Weight: 1},
		},
	}
	if err := sel.Validate(); err != nil {
		t.Errorf("valid selector entry rejected: %v", err)
	}
	sel.ActionSet[0].Weight = 0
	if err := sel.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("zero weight: %v", err)
	}
	sel.ActionSet = nil
	if err := sel.Validate(); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Errorf("missing action set: %v", err)
	}
	if (&Entry{}).Validate() == nil {
		t.Error("entry with no table validated")
	}
}

func TestNeedsPriority(t *testing.T) {
	p := models.Middleblock()
	ipv4, _ := p.TableByName("ipv4_table")
	acl, _ := p.TableByName("acl_ingress_table")
	if NeedsPriority(ipv4) {
		t.Error("ipv4_table needs priority")
	}
	if !NeedsPriority(acl) {
		t.Error("acl_ingress_table does not need priority")
	}
}

func TestKeyAndString(t *testing.T) {
	a := ipv4Entry(t, 1, 0x0a000000, 8)
	b := ipv4Entry(t, 1, 0x0a000000, 8)
	c := ipv4Entry(t, 2, 0x0a000000, 8)
	if a.Key() != b.Key() {
		t.Error("equal matches, different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different matches, same key")
	}
	// Same match, different action: still the same Key (collision).
	b.Action.Args[0] = value.New(9, 10)
	if a.Key() != b.Key() {
		t.Error("action changed the match key")
	}
	s := a.String()
	for _, want := range []string{"ipv4_table", "set_nexthop_id", "=>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestMatchLookup(t *testing.T) {
	e := ipv4Entry(t, 1, 0, 0)
	if _, ok := e.Match("vrf_id"); !ok {
		t.Error("vrf_id not found")
	}
	if _, ok := e.Match("bogus"); ok {
		t.Error("bogus found")
	}
}

func TestClone(t *testing.T) {
	e := ipv4Entry(t, 1, 0x0a000000, 8)
	cp := e.Clone()
	cp.Matches[0].Value = value.New(7, 10)
	cp.Action.Args[0] = value.New(7, 10)
	if e.Matches[0].Value.Uint64() != 1 || e.Action.Args[0].Uint64() != 1 {
		t.Error("Clone aliases the original")
	}

	p := models.Middleblock()
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthop, _ := p.ActionByName("set_nexthop_id")
	sel := &Entry{
		Table:   wcmpTbl,
		Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		ActionSet: []WeightedAction{
			{ActionInvocation: ActionInvocation{Action: setNexthop, Args: []value.V{value.New(1, 10)}}, Weight: 2},
		},
	}
	cp2 := sel.Clone()
	cp2.ActionSet[0].Args[0] = value.New(9, 10)
	if sel.ActionSet[0].Args[0].Uint64() != 1 {
		t.Error("Clone aliases the action set")
	}
}

// TestEqual: Equal agrees with String equality on every field String
// renders, and also tells action-set members apart by their arguments.
func TestEqual(t *testing.T) {
	p := models.Middleblock()
	wcmpTbl, _ := p.TableByName("wcmp_group_table")
	setNexthopID, _ := p.ActionByName("set_nexthop_id")
	aclDrop, _ := p.ActionByName("acl_drop")
	aclT, _ := p.TableByName("acl_ingress_table")
	drop, _ := p.ActionByName("drop")
	group := &Entry{
		Table:   wcmpTbl,
		Matches: []Match{{Key: "wcmp_group_id", Kind: ir.MatchExact, Value: value.New(1, 10)}},
		ActionSet: []WeightedAction{
			{ActionInvocation: ActionInvocation{Action: setNexthopID, Args: []value.V{value.New(1, 10)}}, Weight: 2},
			{ActionInvocation: ActionInvocation{Action: setNexthopID, Args: []value.V{value.New(2, 10)}}, Weight: 1},
		},
	}
	acl := &Entry{
		Table: aclT,
		Matches: []Match{{Key: "dst_ip", Kind: ir.MatchTernary,
			Value: value.New(0x0a000000, 32), Mask: value.New(0xff000000, 32)}},
		Priority: 10,
		Action:   &ActionInvocation{Action: aclDrop},
	}
	cases := []struct {
		name   string
		base   *Entry
		mutate func(*Entry)
	}{
		{"identical", ipv4Entry(t, 1, 0x0a000000, 8), func(*Entry) {}},
		{"identical group", group, func(*Entry) {}},
		{"exact value", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Matches[0].Value = value.New(2, 10) }},
		{"value width", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Matches[0].Value = value.New(1, 12) }},
		{"prefix length", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Matches[1].PrefixLen = 16 }},
		{"match order", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Matches[0], e.Matches[1] = e.Matches[1], e.Matches[0] }},
		{"match count", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Matches = e.Matches[:1] }},
		{"action arg", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Action.Args[0] = value.New(3, 10) }},
		{"action", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) { e.Action = &ActionInvocation{Action: drop} }},
		{"action to set", ipv4Entry(t, 1, 0x0a000000, 8), func(e *Entry) {
			e.ActionSet = []WeightedAction{{ActionInvocation: *e.Action, Weight: 1}}
			e.Action = nil
		}},
		{"mask", acl, func(e *Entry) { e.Matches[0].Mask = value.New(0xffff0000, 32) }},
		{"priority", acl, func(e *Entry) { e.Priority = 11 }},
		{"table", group, func(e *Entry) { e.Table = aclT }},
		{"member weight", group, func(e *Entry) { e.ActionSet[1].Weight = 3 }},
		{"member count", group, func(e *Entry) { e.ActionSet = e.ActionSet[:1] }},
		{"member action", group, func(e *Entry) { e.ActionSet[1].Action = drop }},
	}
	for _, c := range cases {
		other := c.base.Clone()
		c.mutate(other)
		want := c.base.String() == other.String()
		if got := c.base.Equal(other); got != want {
			t.Errorf("%s: Equal = %v, String equality = %v", c.name, got, want)
		}
		if got := other.Equal(c.base); got != want {
			t.Errorf("%s (swapped): Equal = %v, String equality = %v", c.name, got, want)
		}
	}

	// String leaves member arguments out; Equal does not.
	other := group.Clone()
	other.ActionSet[1].Args[0] = value.New(3, 10)
	if group.String() != other.String() {
		t.Fatal("String now renders member arguments; this case no longer tests anything")
	}
	if group.Equal(other) {
		t.Error("Equal ignores action-set member arguments")
	}
}
