package switchv

import (
	"testing"

	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/models"
)

// TestReconcileWCMPMemberArgs: a torn MODIFY that only changes a WCMP
// member's argument landed only if the read-back carries the new
// argument. The old group still in the read-back means "outcome
// unknown", not OK: judging it applied would make the oracle expect the
// new group and flag the read-back as a mismatch.
func TestReconcileWCMPMemberArgs(t *testing.T) {
	info := p4info.New(models.MustLoad("middleblock"))
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
	prev := pdpi.NewStore()
	old := group(1, 2)
	e, err := p4rt.FromWire(info, &old)
	if err != nil {
		t.Fatal(err)
	}
	if err := prev.Insert(e); err != nil {
		t.Fatal(err)
	}
	req := p4rt.WriteRequest{Updates: []p4rt.Update{{Type: p4rt.Modify, Entry: group(1, 3)}}}

	resp := reconcileWriteResponse(info, prev, p4rt.ReadResponse{Entries: []p4rt.TableEntry{group(1, 2)}}, req)
	if got := resp.Statuses[0].Code; got != p4rt.Unavailable {
		t.Errorf("modify absent from the read-back reconciled as %s, want %s", got, p4rt.Unavailable)
	}
	resp = reconcileWriteResponse(info, prev, p4rt.ReadResponse{Entries: []p4rt.TableEntry{group(1, 3)}}, req)
	if got := resp.Statuses[0].Code; got != p4rt.OK {
		t.Errorf("modify visible in the read-back reconciled as %s, want %s", got, p4rt.OK)
	}
}
