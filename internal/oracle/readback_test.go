package oracle

import (
	"testing"

	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
)

func nexthopWire(info *p4info.Info, id, tag byte) p4rt.TableEntry {
	nhT, _ := info.TableByName("nexthop_table")
	setNexthop, _ := info.ActionByName("set_nexthop")
	return p4rt.TableEntry{
		TableID: nhT.ID,
		Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{id}}}},
		Action: p4rt.TableAction{Action: &p4rt.Action{
			ActionID: setNexthop.ID,
			Params: []p4rt.ActionParam{
				{ParamID: 1, Value: []byte{tag}},
				{ParamID: 2, Value: []byte{tag}},
			},
		}},
	}
}

func vrfWire(info *p4info.Info, id byte) p4rt.TableEntry { return vrfInsert(info, id).Entry }

// preinstall puts wire entries straight into the oracle's state, in order.
func preinstall(t *testing.T, o *Oracle, info *p4info.Info, entries ...p4rt.TableEntry) {
	t.Helper()
	for i := range entries {
		e, err := p4rt.FromWire(info, &entries[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := o.State().Insert(e); err != nil {
			t.Fatal(err)
		}
	}
}

func stateKeys(o *Oracle, info *p4info.Info) []string {
	var out []string
	for _, e := range o.State().All(info.Program()) {
		out = append(out, e.Key())
	}
	return out
}

func wantStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d\n%q\nwant %d\n%q", what, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]:\n got %q\nwant %q", what, i, got[i], want[i])
		}
	}
}

// TestReadbackViolationOrder pins the kinds, messages and order of the
// read-back violations for a read-back that mixes every failure across two
// tables: per read-back entry in read order (format, duplicate, extra,
// mismatch), then the missing entries in program-table, then insertion,
// order.
func TestReadbackViolationOrder(t *testing.T) {
	info := infoMB()
	o := New(info)
	preinstall(t, o, info,
		vrfWire(info, 3), nexthopWire(info, 3, 3), vrfWire(info, 1),
		vrfWire(info, 2), nexthopWire(info, 2, 2), nexthopWire(info, 1, 1))

	malformed := vrfWire(info, 4)
	malformed.Match[0].Exact.Value = []byte{0, 4}
	req := p4rt.WriteRequest{Updates: []p4rt.Update{vrfInsert(info, 7)}}
	resp := p4rt.WriteResponse{Statuses: []p4rt.Status{{}}}
	_, violations := o.CheckBatch(req, resp, p4rt.ReadResponse{Entries: []p4rt.TableEntry{
		nexthopWire(info, 1, 1),
		malformed,
		vrfWire(info, 1),
		nexthopWire(info, 1, 1),
		vrfWire(info, 9),
		nexthopWire(info, 2, 5),
		nexthopWire(info, 5, 5),
		vrfWire(info, 7),
	}})
	var got []string
	for _, v := range violations {
		got = append(got, v.String())
	}
	wantStrings(t, "violations", got, []string{
		"[state] readback-format: read-back entry 1 is malformed: p4rt: INVALID_ARGUMENT: table vrf_table field vrf_id: p4rt: byte string 0004 is not canonical",
		"[state] readback-duplicate: read returned the same entry twice: nexthop_table[nexthop_id=10w0x1]@0",
		"[state] readback-extra: switch has an entry it should not: vrf_table[vrf_id=10w0x9]@0",
		"[state] readback-mismatch: entry differs: switch nexthop_table 10w0x2 => set_nexthop 10w0x5 10w0x5, expected nexthop_table 10w0x2 => set_nexthop 10w0x2 10w0x2",
		"[state] readback-extra: switch has an entry it should not: nexthop_table[nexthop_id=10w0x5]@0",
		"[state] readback-missing: switch lost entry: vrf_table[vrf_id=10w0x3]@0",
		"[state] readback-missing: switch lost entry: vrf_table[vrf_id=10w0x2]@0",
		"[state] readback-missing: switch lost entry: nexthop_table[nexthop_id=10w0x3]@0",
	})
	// A malformed (or duplicated) read-back cannot be adopted: the oracle
	// falls back to the state the statuses imply.
	wantStrings(t, "state after a malformed read-back", stateKeys(o, info), []string{
		"vrf_table[vrf_id=10w0x3]@0",
		"vrf_table[vrf_id=10w0x1]@0",
		"vrf_table[vrf_id=10w0x2]@0",
		"vrf_table[vrf_id=10w0x7]@0",
		"nexthop_table[nexthop_id=10w0x3]@0",
		"nexthop_table[nexthop_id=10w0x2]@0",
		"nexthop_table[nexthop_id=10w0x1]@0",
	})

	// A well-formed read-back is adopted as observed, in read order, extra
	// entries included and lost ones dropped.
	_, violations = o.CheckBatch(p4rt.WriteRequest{}, p4rt.WriteResponse{}, p4rt.ReadResponse{Entries: []p4rt.TableEntry{
		nexthopWire(info, 1, 1), vrfWire(info, 9), vrfWire(info, 1), nexthopWire(info, 3, 3),
	}})
	got = got[:0]
	for _, v := range violations {
		got = append(got, v.String())
	}
	wantStrings(t, "violations", got, []string{
		"[state] readback-extra: switch has an entry it should not: vrf_table[vrf_id=10w0x9]@0",
		"[state] readback-missing: switch lost entry: vrf_table[vrf_id=10w0x3]@0",
		"[state] readback-missing: switch lost entry: vrf_table[vrf_id=10w0x2]@0",
		"[state] readback-missing: switch lost entry: vrf_table[vrf_id=10w0x7]@0",
		"[state] readback-missing: switch lost entry: nexthop_table[nexthop_id=10w0x2]@0",
	})
	wantStrings(t, "adopted state", stateKeys(o, info), []string{
		"vrf_table[vrf_id=10w0x9]@0",
		"vrf_table[vrf_id=10w0x1]@0",
		"nexthop_table[nexthop_id=10w0x1]@0",
		"nexthop_table[nexthop_id=10w0x3]@0",
	})
}

// TestReadbackWCMPMemberArgs: a switch that reads back a WCMP group whose
// only difference is one member's action argument has lost the group's
// programming, and the read-back check must say so.
func TestReadbackWCMPMemberArgs(t *testing.T) {
	info := infoMB()
	wcmp, _ := info.TableByName("wcmp_group_table")
	setNH, _ := info.ActionByName("set_nexthop_id")
	group := func(args ...byte) p4rt.TableEntry {
		te := p4rt.TableEntry{
			TableID: wcmp.ID,
			Match:   []p4rt.FieldMatch{{FieldID: 1, Exact: &p4rt.ExactMatch{Value: []byte{1}}}},
			Action:  p4rt.TableAction{HasActionSet: true},
		}
		for _, a := range args {
			te.Action.ActionSet = append(te.Action.ActionSet, p4rt.ActionProfileAction{
				Action: p4rt.Action{ActionID: setNH.ID, Params: []p4rt.ActionParam{{ParamID: 1, Value: []byte{a}}}},
				Weight: 1,
			})
		}
		return te
	}
	o := New(info)
	preinstall(t, o, info, group(1, 2))
	_, violations := o.CheckBatch(p4rt.WriteRequest{}, p4rt.WriteResponse{},
		p4rt.ReadResponse{Entries: []p4rt.TableEntry{group(1, 2)}})
	if len(violations) != 0 {
		t.Fatalf("identical read-back: %v", violations)
	}
	_, violations = o.CheckBatch(p4rt.WriteRequest{}, p4rt.WriteResponse{},
		p4rt.ReadResponse{Entries: []p4rt.TableEntry{group(1, 3)}})
	if len(violations) != 1 || violations[0].Kind != "readback-mismatch" {
		t.Fatalf("member argument changed in the read-back; violations: %v", violations)
	}
}
