package switchv

import (
	"reflect"
	"testing"

	"switchv/internal/p4/p4info"
	"switchv/internal/p4/pdpi"
	"switchv/internal/switchsim"
	"switchv/internal/symbolic"
	"switchv/internal/testutil"
	"switchv/models"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineKind
		ok   bool
	}{
		{"", EngineCompiled, true},
		{"compiled", EngineCompiled, true},
		{"interp", EngineInterp, true},
		{"bmv2", "", false},
		{"Compiled", "", false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParsePrecheck(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PrecheckMode
		err  string
	}{
		{"", PrecheckOn, ""},
		{"on", PrecheckOn, ""},
		{"warn", PrecheckWarn, ""},
		{"off", PrecheckOff, ""},
		{"bogus", 0, `invalid -precheck "bogus" (want on, warn, or off)`},
	} {
		got, err := ParsePrecheck(tc.in)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if got != tc.want || gotErr != tc.err {
			t.Errorf("ParsePrecheck(%q) = %v, %q; want %v, %q", tc.in, got, gotErr, tc.want, tc.err)
		}
	}
}

// TestEngineConstructionsPerWorker is the regression test for the
// per-packet-simulator bug: the data-plane compare phase must build one
// engine per worker, not one per packet.
func TestEngineConstructionsPerWorker(t *testing.T) {
	for _, workers := range []int{1, 3} {
		h, _ := newHarness(t, "middleblock")
		before := EngineConstructions()
		rep, err := h.RunDataPlane(fixtureEntries("middleblock"), DataPlaneOptions{
			Coverage: symbolic.CoverBranches,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := EngineConstructions() - before
		if got != int64(workers) {
			t.Errorf("workers=%d: %d engine constructions for %d packets, want one per worker",
				workers, got, rep.Packets)
		}
		if rep.Packets <= workers {
			t.Fatalf("campaign too shallow to distinguish per-worker from per-packet: %d packets", rep.Packets)
		}
	}
}

// TestEngineParityDataPlane runs the same conformant-switch campaign
// under both engines and requires identical reports.
func TestEngineParityDataPlane(t *testing.T) {
	for _, role := range models.Names() {
		t.Run(role, func(t *testing.T) {
			var reps []*DataPlaneReport
			for _, eng := range []EngineKind{EngineInterp, EngineCompiled} {
				h, _ := newHarness(t, role)
				rep, err := h.RunDataPlane(fixtureEntries(role), DataPlaneOptions{
					Coverage: symbolic.CoverBranches,
					Churn:    true,
					Engine:   eng,
				})
				if err != nil {
					t.Fatalf("engine %s: %v", eng, err)
				}
				reps = append(reps, rep)
			}
			if !reflect.DeepEqual(reps[0].Incidents, reps[1].Incidents) {
				t.Errorf("incidents diverge:\ninterp:   %v\ncompiled: %v", reps[0].Incidents, reps[1].Incidents)
			}
			if reps[0].Packets != reps[1].Packets || reps[0].Covered != reps[1].Covered {
				t.Errorf("report shape diverges: interp %d pkts/%d covered, compiled %d pkts/%d covered",
					reps[0].Packets, reps[0].Covered, reps[1].Packets, reps[1].Covered)
			}
		})
	}
}

// TestEngineFaultParity re-runs every data-plane fault-matrix recipe
// under both engines: each fault's incident list must be identical, so
// engine choice cannot change what the fleet detects.
func TestEngineFaultParity(t *testing.T) {
	for _, fault := range switchsim.AllFaults() {
		rc := matrixRecipes[fault]
		if rc.tool != "p4-symbolic" {
			continue
		}
		t.Run(string(fault), func(t *testing.T) {
			role := rc.role
			if role == "" {
				role = "middleblock"
			}
			var got [][]Incident
			for _, eng := range []EngineKind{EngineInterp, EngineCompiled} {
				h, sw := newHarness(t, role, fault)
				if rc.prep != nil {
					rc.prep(t, h, sw)
				}
				prog := models.MustLoad(role)
				store := pdpi.NewStore()
				for _, fix := range rc.fixtures {
					fix(prog, store)
				}
				entries := testutil.InstallOrder(p4info.New(prog), store)
				rep, err := h.RunDataPlane(entries, DataPlaneOptions{
					Coverage: symbolic.CoverBranches,
					Churn:    rc.churn,
					Engine:   eng,
				})
				if err != nil {
					t.Fatalf("engine %s: %v", eng, err)
				}
				got = append(got, rep.Incidents)
			}
			if len(got[0]) == 0 {
				t.Fatalf("fault %s not detected", fault)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("fault %s: incidents diverge between engines:\ninterp:   %v\ncompiled: %v",
					fault, got[0], got[1])
			}
		})
	}
}
