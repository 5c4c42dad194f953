package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"switchv/internal/bmv2"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
)

// dpFault is the seeded fault every data-plane run must detect.
const dpFault = switchsim.FaultLPMTiebreakWrong

// maxBehaviors is the behavior-set bound RunDataPlane uses by default,
// and the number of round-robin runs the interpreter replay tries.
const maxBehaviors = 32

// dpCampaign is one data-plane campaign's outcome as the benchmark sees it.
type dpCampaign struct {
	rep      *switchv.DataPlaneReport
	elapsed  time.Duration
	heapMB   float64 // largest live heap a collection left during the campaign
	canon    string
	st       *stack
	hits     int // cache hits and misses during the campaign
	misses   int
	campaign int // tracer campaign id (0 untraced)
}

// dpOptions are the options every data-plane campaign runs with:
// branch coverage plus enriched goals, compiled engine, one worker,
// precheck on; a cache only where the caller passes one.
func dpOptions(cache *symbolic.Cache) switchv.DataPlaneOptions {
	return switchv.DataPlaneOptions{Coverage: symbolic.CoverBranches, Cache: cache, Engine: switchv.EngineCompiled, Workers: 1}
}

// genOptions are the generator options RunDataPlane derives from
// dpOptions.
func genOptions(cache *symbolic.Cache, dead map[string]bool) symbolic.GenOptions {
	return symbolic.GenOptions{Mode: symbolic.CoverBranches, Enriched: true, Cache: cache, Workers: 1, UnreachableTables: dead}
}

// canonDP renders the report minus its timings: goal verdicts, packet
// count, solver and SAT counts, and the incident list.
func canonDP(rep *switchv.DataPlaneReport) string {
	c := *rep
	c.GenElapsed, c.TestElapsed = 0, 0
	data, err := json.Marshal(c)
	if err != nil {
		return "unrenderable: " + err.Error()
	}
	return string(data)
}

// runDP sets up a fresh stack on the entry set of the given seed, runs
// one data-plane campaign on it and tears the stack down again.
func (r *run) runDP(seed int64, cache *symbolic.Cache, faults []switchsim.Fault, tr *tracer) (*dpCampaign, error) {
	// Start every campaign from a collected heap, as a fresh process
	// would, so no campaign pays for an earlier one's garbage.
	runtime.GC()
	r.heap.reset()
	st, ts, err := newStack(r.w.role, r.w.entries, seed, faults, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.setups = append(r.setups, ts)
	c := &dpCampaign{st: st}
	h0, m0 := cacheCounts(cache)
	var root int
	if tr != nil {
		c.campaign = tr.startCampaign()
		root = tr.begin("campaign")
	}
	start := time.Now()
	rep, err := st.h.RunDataPlane(st.entries, dpOptions(cache))
	c.elapsed = time.Since(start)
	c.heapMB = r.heap.peakMB()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	c.rep = rep
	c.canon = canonDP(rep)
	h1, m1 := cacheCounts(cache)
	c.hits, c.misses = h1-h0, m1-m0
	return c, nil
}

func cacheCounts(c *symbolic.Cache) (int, int) {
	if c == nil {
		return 0, 0
	}
	return c.Hits(), c.Misses()
}

// runDataPlane is the body of the three dp workloads: the traced run,
// or one part of a timed run.
func (r *run) runDataPlane() error {
	var cache *symbolic.Cache
	if r.w.warm {
		// One untimed campaign fills the per-goal cache.
		cache = symbolic.NewCache()
		c, err := r.runDP(table3Seed, cache, nil, nil)
		if err != nil {
			return err
		}
		r.note("warm-up campaign: %d goals, %d cached, %d SMT checks", c.rep.Goals, c.rep.SolverReport.Cached, c.rep.SolverReport.SMTChecks)
	}

	var live *dpCampaign
	if r.trace {
		// One untraced campaign for the tracing overhead, then the traced one.
		c, err := r.runDP(table3Seed, cache, nil, nil)
		if err != nil {
			return err
		}
		r.checkCanon(c.canon)
		if live, err = r.runDP(table3Seed, cache, nil, r.tr); err != nil {
			return err
		}
		r.checkCanon(live.canon)
		r.layer("trace.overhead_s", "s", (live.elapsed - c.elapsed).Seconds())
		r.ops += live.rep.Packets
		r.failed += len(live.rep.Incidents)
	} else {
		var heap, camp, gen, test, entries, batches, batchTail sample
		for range r.part {
			live = nil // the previous campaign's stack is garbage now
			c, err := r.runDP(table3Seed, cache, nil, nil)
			if err != nil {
				return err
			}
			r.checkCanon(c.canon)
			camp = append(camp, c.elapsed.Seconds())
			heap = append(heap, c.heapMB)
			gen = append(gen, c.rep.GenElapsed.Seconds())
			test = append(test, c.rep.TestElapsed.Seconds())
			entries = append(entries, float64(c.rep.Entries)/c.elapsed.Seconds())
			b := gaps(c.st.cli.writeStarts)
			batches = append(batches, b...)
			batchTail = append(batchTail, b.tail())
			r.ops += c.rep.Packets
			r.failed += len(c.rep.Incidents)
			live = c
		}
		r.recordSetups()
		r.metric("campaign_s", "s", camp)
		r.metric("peak_heap_mb", "MB", heap)
		r.metric("generation_s", "s", gen)
		r.metric("testing_s", "s", test)
		r.metric("entries_per_s", "1/s", entries)
		r.metric("batch_ms.p50", "ms", batches)
		r.extra("batch_ms.tail", "ms", batchTail)
	}
	r.note("Table 3 instance (entry seed %d): %d entries, %d goals (%d covered, %d unreachable), %d packets, %d incidents on the fault-free switch",
		table3Seed, live.rep.Entries, live.rep.Goals, live.rep.Covered, live.rep.Unreachable, live.rep.Packets, len(live.rep.Incidents))
	r.noteIncidents(live.rep)
	srep := live.rep.SolverReport
	r.note("solver: %d SMT checks, %d witnessed, %d witness-unsat, %d pruned, %d cached, %d precheck-skipped; sat: %d decisions, %d propagations, %d conflicts",
		srep.SMTChecks, srep.Witnessed, srep.WitnessUnsat, srep.Pruned, srep.Cached, srep.Precheck,
		srep.SATStats.Decisions, srep.SATStats.Propagations, srep.SATStats.Conflicts)

	if r.trace {
		// Replay the generator and the engine with the options
		// RunDataPlane passes; the generator must reproduce the live
		// campaign's report exactly.
		store, err := live.st.store()
		if err != nil {
			return err
		}
		pkts, rrep, err := r.replayGenerator(live.st.prog, store, genOptions(cache, live.st.dead))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rrep, srep) {
			r.fail("generator replay report differs from the live campaign's:\n  live   %+v\n  replay %+v", srep, rrep)
		}
		r.replayEngine(live.st.prog, store, pkts)
		r.dpLayers(live)
		return r.knownAnswerDP()
	}
	return nil
}

// knownAnswerDP runs the untimed known-answer checks on the entry set
// drawn from the run's seed: every entry and default goal packet must
// hit its target in the reference interpreter, and a switch with the
// seeded fault must draw more incidents than a fault-free one. Both
// campaigns run on fresh switches and share one per-goal cache, filled
// by the generator pass that produces the packets.
func (r *run) knownAnswerDP() error {
	st, _, err := newStack(r.w.role, r.w.entries, r.seed, nil, nil)
	if err != nil {
		return err
	}
	st.close()
	store, err := st.store()
	if err != nil {
		return err
	}
	cache := symbolic.NewCache()
	pkts, _, err := r.replayGenerator(st.prog, store, genOptions(cache, st.dead))
	if err != nil {
		return err
	}
	r.ops += len(pkts)
	r.failed += r.interpReplay(st.prog, store, pkts)

	clean, err := r.runDP(r.seed, cache, nil, nil)
	if err != nil {
		return err
	}
	faulty, err := r.runDP(r.seed, cache, []switchsim.Fault{dpFault}, nil)
	if err != nil {
		return err
	}
	r.ops += clean.rep.Packets
	r.failed += len(clean.rep.Incidents)
	r.note("known-answer instance (entry seed %d): %d incidents on the fault-free switch, %d with seeded fault %s",
		r.seed, len(clean.rep.Incidents), len(faulty.rep.Incidents), dpFault)
	if r.seed != table3Seed {
		r.noteIncidents(clean.rep)
	}
	if len(faulty.rep.Incidents) <= len(clean.rep.Incidents) {
		r.fail("seeded fault %s went undetected: %d incidents vs %d on the fault-free switch",
			dpFault, len(faulty.rep.Incidents), len(clean.rep.Incidents))
	}
	return nil
}

// noteIncidents lists a campaign's incidents, all wrong verdicts since
// the switch is fault-free.
func (r *run) noteIncidents(rep *switchv.DataPlaneReport) {
	for i, inc := range rep.Incidents {
		if i == 5 {
			r.note("  ... %d more", len(rep.Incidents)-i)
			break
		}
		r.note("  wrong verdict: %s", truncate(inc.String(), 240))
	}
}

// replayGenerator reruns packet generation as RunDataPlane does.
func (r *run) replayGenerator(prog *ir.Program, store *pdpi.Store, gopts symbolic.GenOptions) ([]symbolic.TestPacket, symbolic.Report, error) {
	var gen *symbolic.Generator
	var err error
	r.tr.do("symbolic.build", func() { gen, err = symbolic.NewGenerator(prog, store, symbolic.Options{}, gopts) })
	if err != nil {
		return nil, symbolic.Report{}, err
	}
	var pkts []symbolic.TestPacket
	var rep symbolic.Report
	r.tr.do("symbolic.run", func() { pkts, rep, err = gen.Run() })
	return pkts, rep, err
}

// replayEngine times the compiled engine over the generated packets the
// way RunDataPlane's compare phase drives it: one engine, Reset and
// BehaviorSet per packet. The three background frames are not replayed.
func (r *run) replayEngine(prog *ir.Program, store *pdpi.Store, pkts []symbolic.TestPacket) {
	var sim bmv2.Simulator
	var err error
	r.tr.do("engine.build", func() { sim, err = switchv.NewEngine(switchv.EngineCompiled, prog, store) })
	if err != nil {
		r.fail("building the compiled engine: %v", err)
		return
	}
	id := r.tr.begin("engine.behavior_set")
	for _, p := range pkts {
		sim.Reset()
		if _, err := sim.BehaviorSet(bmv2.Input{Port: p.Port, Packet: p.Data}, maxBehaviors); err != nil {
			r.fail("engine replay of %s: %v", p.GoalKey, err)
		}
	}
	r.tr.end(id)
	r.layer("engine.runs", "count", float64(len(pkts)))
}

// interpReplay runs every entry and default goal packet through the
// reference interpreter, which shares no code with the compiled engine
// or the symbolic executor. The goal's target hit must appear in the
// trace of one of the packet's runs: after a Reset the interpreter's
// selectors step round-robin through their members, so successive runs
// cover every member a WCMP group can pick. It returns the number of
// packets that never hit their target.
func (r *run) interpReplay(prog *ir.Program, store *pdpi.Store, pkts []symbolic.TestPacket) int {
	sim, err := bmv2.New(prog, store)
	if err != nil {
		r.fail("building the interpreter: %v", err)
		return 0
	}
	var entryHit, entryAll, defHit, defAll, misses int
	for _, p := range pkts {
		table := symbolic.GoalTable(p.GoalKey)
		if table == "" {
			continue
		}
		rest := strings.TrimPrefix(p.GoalKey, "table:"+table+":")
		var want string
		switch {
		case rest == "default":
			defAll++
		case strings.HasPrefix(rest, "entry:"):
			entryAll++
			want = strings.TrimPrefix(rest, "entry:")
		default:
			continue
		}
		sim.Reset()
		hit := false
		for i := 0; i < maxBehaviors && !hit; i++ {
			out, err := sim.Run(bmv2.Input{Port: p.Port, Packet: p.Data})
			if err != nil {
				break
			}
			for _, th := range out.Trace {
				if th.Table == table && th.EntryKey == want {
					hit = true
					break
				}
			}
		}
		switch {
		case hit && want == "":
			defHit++
		case hit:
			entryHit++
		default:
			misses++
			r.note("  interpreter replay miss: %s", p.GoalKey)
		}
	}
	r.note("interpreter replay (entry seed %d): %d/%d entry goals, %d/%d default goals hit their target",
		r.seed, entryHit, entryAll, defHit, defAll)
	if entryAll+defAll == 0 {
		r.fail("interpreter replay found no entry or default goal packets")
	}
	return misses
}

// dpLayers turns the traced campaign and the replays into per-layer
// metrics.
func (r *run) dpLayers(live *dpCampaign) {
	ls := r.tr.layers(live.campaign)
	r.rpcLayers(live.st, ls)
	covered := sumTotal(ls, "p4rt.write", "p4rt.read", "p4rt.inject", "p4rt.packet_out",
		"symbolic.build", "symbolic.run", "engine.build", "engine.behavior_set")
	r.layer("switchv.self_s", "s", (live.elapsed - covered).Seconds())
	r.layer("symbolic.build_s", "s", total(ls, "symbolic.build").Seconds())
	r.layer("symbolic.run_s", "s", total(ls, "symbolic.run").Seconds())
	r.layer("engine.build_s", "s", total(ls, "engine.build").Seconds())
	r.layer("engine.behavior_set_s", "s", total(ls, "engine.behavior_set").Seconds())
	r.solverLayers(live.rep.SolverReport, live.hits, live.misses)
	r.layer("fuzzer.next_batch_s", "s", 0)
	r.layer("oracle.check_s", "s", 0)
	for _, k := range []string{"must_accept", "must_reject", "may_reject", "violations"} {
		r.layer("oracle."+k, "count", 0)
	}
}

func (r *run) solverLayers(srep symbolic.Report, hits, misses int) {
	r.layer("symbolic.goals", "count", float64(srep.Goals))
	r.layer("symbolic.smt_checks", "count", float64(srep.SMTChecks))
	r.layer("symbolic.witnessed", "count", float64(srep.Witnessed))
	r.layer("symbolic.witness_unsat", "count", float64(srep.WitnessUnsat))
	r.layer("symbolic.pruned", "count", float64(srep.Pruned))
	r.layer("symbolic.cached", "count", float64(srep.Cached))
	r.layer("symbolic.sliced_asserts", "count", float64(srep.SlicedAsserts))
	r.layer("symbolic.sliced_bits", "count", float64(srep.SlicedBits))
	ratio := 0.0
	if srep.Goals > 0 {
		ratio = 1 - float64(srep.SMTChecks)/float64(srep.Goals)
	}
	r.layer("symbolic.solve_avoid_ratio", "ratio", ratio)
	r.layer("symbolic.cache_hits", "count", float64(hits))
	r.layer("symbolic.cache_misses", "count", float64(misses))
	r.layer("smt.terms", "count", float64(srep.Terms))
	r.layer("smt.clauses", "count", float64(srep.Clauses))
	r.layer("smt.vars", "count", float64(srep.Vars))
	r.layer("smt.cnf_reuse", "count", float64(srep.CNFReuse))
	r.layer("sat.decisions", "count", float64(srep.SATStats.Decisions))
	r.layer("sat.propagations", "count", float64(srep.SATStats.Propagations))
	r.layer("sat.conflicts", "count", float64(srep.SATStats.Conflicts))
	r.layer("sat.solve_calls", "count", float64(srep.SATStats.SolveCalls))
	r.layer("sat.kept_learnts", "count", float64(srep.SATStats.KeptLearnts))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + fmt.Sprintf("... (%d more bytes)", len(s)-n)
}
