package main

import (
	"reflect"
	"runtime"
	"time"

	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/oracle"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/symbolic"
)

const (
	// cpFault is the seeded fault every control-plane run must detect,
	// in a campaign of cpFaultBatches batches.
	cpFault        = switchsim.FaultAcceptInvalidReference
	cpFaultBatches = 40
	// cpUpdates is the updates per batch of every control-plane campaign.
	cpUpdates = 50
)

type cpCampaign struct {
	rep      *switchv.ControlPlaneReport
	elapsed  time.Duration
	heapMB   float64 // largest live heap a collection left during the campaign
	canon    string
	st       *stack
	campaign int
}

func fuzzOptions(seed int64, batches int) fuzzer.Options {
	return fuzzer.Options{Seed: seed, NumRequests: batches, UpdatesPerRequest: cpUpdates}
}

// runCP sets up a fresh stack, runs one p4-fuzzer campaign with the
// given fuzzer seed on it and tears the stack down again. With a tracer the campaign is traced and
// its (request, response, read-back) sequence recorded.
func (r *run) runCP(seed int64, batches int, faults []switchsim.Fault, tr *tracer) (*cpCampaign, error) {
	// Start every campaign from a collected heap, as a fresh process
	// would, so no campaign pays for an earlier one's garbage.
	runtime.GC()
	r.heap.reset()
	st, ts, err := newStack(r.w.role, 0, seed, faults, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.setups = append(r.setups, ts)
	c := &cpCampaign{st: st}
	var root int
	if tr != nil {
		st.cli.recording = true
		c.campaign = tr.startCampaign()
		root = tr.begin("campaign")
	}
	start := time.Now()
	rep, err := st.h.RunControlPlane(fuzzOptions(seed, batches))
	c.elapsed = time.Since(start)
	c.heapMB = r.heap.peakMB()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	c.rep = rep
	data, err := rep.Canon().JSON()
	if err != nil {
		return nil, err
	}
	c.canon = string(data)
	return c, nil
}

// runControlPlane is the body of the cp workload: the traced run, or
// one part of a timed run.
func (r *run) runControlPlane() error {
	var live *cpCampaign
	if r.trace {
		c, err := r.runCP(table3Seed, r.w.batches, nil, nil)
		if err != nil {
			return err
		}
		r.checkCanon(c.canon)
		live, err = r.runCP(table3Seed, r.w.batches, nil, r.tr)
		if err != nil {
			return err
		}
		r.checkCanon(live.canon)
		r.layer("trace.overhead_s", "s", (live.elapsed - c.elapsed).Seconds())
		r.ops += live.rep.Updates
		r.failed += len(live.rep.Incidents)
		r.replayFuzzer(live)
	} else {
		var heap, camp, harness, rpc, entries, batches, batchTail sample
		for range r.part {
			live = nil // the previous campaign's stack is garbage now
			c, err := r.runCP(table3Seed, r.w.batches, nil, nil)
			if err != nil {
				return err
			}
			r.checkCanon(c.canon)
			camp = append(camp, c.elapsed.Seconds())
			heap = append(heap, c.heapMB)
			rpc = append(rpc, c.st.cli.rpcTime.Seconds())
			harness = append(harness, (c.elapsed - c.st.cli.rpcTime).Seconds())
			entries = append(entries, float64(c.rep.Updates)/c.elapsed.Seconds())
			b := gaps(c.st.cli.writeStarts)
			batches = append(batches, b...)
			batchTail = append(batchTail, b.tail())
			r.ops += c.rep.Updates
			r.failed += len(c.rep.Incidents)
			live = c
		}
		r.recordSetups()
		r.metric("campaign_s", "s", camp)
		r.metric("peak_heap_mb", "MB", heap)
		r.metric("generation_s", "s", harness)
		r.metric("testing_s", "s", rpc)
		r.metric("entries_per_s", "1/s", entries)
		r.metric("batch_ms.p50", "ms", batches)
		r.extra("batch_ms.tail", "ms", batchTail)
	}
	rep := live.rep
	r.note("campaign: %d batches, %d updates (%d must-accept, %d must-reject, %d may-reject), final read-back %d entries, %d incidents on the fault-free switch",
		rep.Batches, rep.Updates, rep.MustAccept, rep.MustReject, rep.MayReject, live.st.cli.lastRead, len(rep.Incidents))
	for _, inc := range rep.Incidents {
		r.note("  wrong verdict: %s", truncate(inc.String(), 240))
	}
	if r.trace {
		return r.knownAnswerCP()
	}
	return nil
}

// knownAnswerCP runs the untimed seeded-fault check with the fuzzer
// stream drawn from the run's seed: the fault must be detected.
func (r *run) knownAnswerCP() error {
	fc, err := r.runCP(r.seed, cpFaultBatches, []switchsim.Fault{cpFault}, nil)
	if err != nil {
		return err
	}
	r.note("seeded fault %s: %d incidents in %dx%d with fuzzer seed %d", cpFault, len(fc.rep.Incidents), cpFaultBatches, cpUpdates, r.seed)
	if len(fc.rep.Incidents) == 0 {
		r.fail("seeded fault %s went undetected in %d batches", cpFault, cpFaultBatches)
	}
	return nil
}

// replayFuzzer feeds the traced campaign's recorded (request, response,
// read-back) sequence through a fresh fuzzer and oracle set up as
// RunControlPlane sets them up, timing each layer. The fuzzer must
// regenerate every request and the oracle must reach the same verdict
// counts.
func (r *run) replayFuzzer(live *cpCampaign) {
	d := live.st.cli
	if len(d.writes) != live.rep.Batches || len(d.reads) != live.rep.Batches {
		r.fail("recorded %d writes and %d reads for %d batches", len(d.writes), len(d.reads), live.rep.Batches)
		return
	}
	cov := coverage.NewMapExcluding(live.st.info, live.st.dead)
	opts := fuzzOptions(table3Seed, r.w.batches)
	opts.Coverage = cov
	var f *fuzzer.Fuzzer
	r.tr.do("fuzzer.next_batch", func() { f = fuzzer.New(live.st.info, opts) })
	orc := oracle.New(live.st.info)
	orc.SetCoverage(cov)
	var mustAccept, mustReject, mayReject, violations int
	for i := range d.writes {
		var req p4rt.WriteRequest
		var meta []fuzzer.GeneratedUpdate
		var err error
		r.tr.do("fuzzer.next_batch", func() { req, meta, err = f.NextBatch() })
		if err != nil {
			r.fail("fuzzer replay batch %d: %v", i, err)
			return
		}
		if !reflect.DeepEqual(req, d.writes[i]) {
			r.fail("fuzzer replay batch %d differs from the live campaign's request", i)
			return
		}
		resp := d.resps[i]
		var verdicts []oracle.Verdict
		var viols []oracle.Violation
		r.tr.do("oracle.check", func() { verdicts, viols = orc.CheckBatch(req, resp, d.reads[i]) })
		violations += len(viols)
		for j, v := range verdicts {
			switch v {
			case oracle.MustAccept:
				mustAccept++
			case oracle.MustReject:
				mustReject++
			case oracle.MayReject:
				mayReject++
			}
			if j < len(meta) && j < len(resp.Statuses) {
				cov.NoteMutationOutcome(meta[j].Mutation, v.String(), resp.Statuses[j].Code == p4rt.OK)
			}
		}
		r.tr.do("fuzzer.note_accepted", func() {
			for j, st := range resp.Statuses {
				if j < len(req.Updates) && st.Code == p4rt.OK {
					f.NoteAccepted(req.Updates[j])
				}
			}
		})
	}
	rep := live.rep
	if mustAccept != rep.MustAccept || mustReject != rep.MustReject || mayReject != rep.MayReject || violations != len(rep.Incidents) {
		r.fail("oracle replay verdicts %d/%d/%d with %d violations; live campaign %d/%d/%d with %d incidents",
			mustAccept, mustReject, mayReject, violations, rep.MustAccept, rep.MustReject, rep.MayReject, len(rep.Incidents))
	}

	ls := r.tr.layers(live.campaign)
	r.rpcLayers(live.st, ls)
	covered := sumTotal(ls, "p4rt.write", "p4rt.read", "p4rt.inject", "p4rt.packet_out",
		"fuzzer.next_batch", "fuzzer.note_accepted", "oracle.check")
	r.layer("switchv.self_s", "s", (live.elapsed - covered).Seconds())
	r.layer("fuzzer.next_batch_s", "s", total(ls, "fuzzer.next_batch").Seconds())
	r.layer("oracle.check_s", "s", total(ls, "oracle.check").Seconds())
	r.layer("oracle.must_accept", "count", float64(mustAccept))
	r.layer("oracle.must_reject", "count", float64(mustReject))
	r.layer("oracle.may_reject", "count", float64(mayReject))
	r.layer("oracle.violations", "count", float64(violations))
	for _, name := range []string{"symbolic.build_s", "symbolic.run_s", "engine.build_s", "engine.behavior_set_s"} {
		r.layer(name, "s", 0)
	}
	r.layer("engine.runs", "count", 0)
	r.solverLayers(symbolic.Report{}, 0, 0)
}
