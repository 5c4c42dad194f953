package main

import (
	"fmt"
	"sync"
	"time"

	"switchv/internal/p4/check"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4/parser"
	"switchv/internal/p4/pdpi"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/internal/workload"
	"switchv/models"
)

// clientDev wraps the harness's p4rt.Client. It always keeps the start
// time of every Write (the closed-loop batch latency) and the total time
// spent inside Write and Read (the switch side of a control-plane
// campaign); with a tracer it also records a span per call. While
// recording is on it keeps every (request, response, read-back) so the
// fuzzer and oracle can be replayed offline.
type clientDev struct {
	cli *p4rt.Client
	tr  *tracer

	mu          sync.Mutex
	writeStarts []time.Time
	rpcTime     time.Duration
	readEntries int
	lastRead    int
	recording   bool
	writes      []p4rt.WriteRequest
	resps       []p4rt.WriteResponse
	reads       []p4rt.ReadResponse
}

func (d *clientDev) SetForwardingPipelineConfig(cfg p4rt.ForwardingPipelineConfig) error {
	id := d.tr.begin("p4rt.set_pipeline")
	defer d.tr.end(id)
	return d.cli.SetForwardingPipelineConfig(cfg)
}

func (d *clientDev) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	start := time.Now()
	id := d.tr.begin("p4rt.write")
	resp := d.cli.Write(req)
	d.tr.end(id)
	d.mu.Lock()
	d.writeStarts = append(d.writeStarts, start)
	d.rpcTime += time.Since(start)
	if d.recording {
		d.writes = append(d.writes, req)
		d.resps = append(d.resps, resp)
	}
	d.mu.Unlock()
	return resp
}

func (d *clientDev) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	start := time.Now()
	id := d.tr.begin("p4rt.read")
	resp, err := d.cli.Read(req)
	d.tr.end(id)
	d.mu.Lock()
	d.rpcTime += time.Since(start)
	d.readEntries += len(resp.Entries)
	d.lastRead = len(resp.Entries)
	if d.recording && err == nil {
		d.reads = append(d.reads, resp)
	}
	d.mu.Unlock()
	return resp, err
}

func (d *clientDev) PacketOut(p p4rt.PacketOut) error {
	id := d.tr.begin("p4rt.packet_out")
	defer d.tr.end(id)
	return d.cli.PacketOut(p)
}

func (d *clientDev) PacketIns() <-chan p4rt.PacketIn { return d.cli.PacketIns() }

func (d *clientDev) InjectFrame(req p4rt.InjectRequest) (p4rt.InjectResult, error) {
	id := d.tr.begin("p4rt.inject")
	defer d.tr.end(id)
	return d.cli.InjectFrame(req)
}

// serverDev wraps the simulated switch handed to p4rt.NewServer: the
// server-side half of every RPC, and the switch's accept ratio.
type serverDev struct {
	sw *switchsim.Switch
	tr *tracer

	mu       sync.Mutex
	updates  int
	accepted int
}

func (d *serverDev) SetForwardingPipelineConfig(cfg p4rt.ForwardingPipelineConfig) error {
	id := d.tr.begin("switchsim.set_pipeline")
	defer d.tr.end(id)
	return d.sw.SetForwardingPipelineConfig(cfg)
}

func (d *serverDev) Write(req p4rt.WriteRequest) p4rt.WriteResponse {
	id := d.tr.begin("switchsim.write")
	resp := d.sw.Write(req)
	d.tr.end(id)
	ok := 0
	for _, st := range resp.Statuses {
		if st.Code == p4rt.OK {
			ok++
		}
	}
	d.mu.Lock()
	d.updates += len(req.Updates)
	d.accepted += ok
	d.mu.Unlock()
	return resp
}

func (d *serverDev) Read(req p4rt.ReadRequest) (p4rt.ReadResponse, error) {
	id := d.tr.begin("switchsim.read")
	defer d.tr.end(id)
	return d.sw.Read(req)
}

func (d *serverDev) PacketOut(p p4rt.PacketOut) error {
	id := d.tr.begin("switchsim.packet_out")
	defer d.tr.end(id)
	return d.sw.PacketOut(p)
}

func (d *serverDev) PacketIns() <-chan p4rt.PacketIn { return d.sw.PacketIns() }

func (d *serverDev) InjectFrame(req p4rt.InjectRequest) (p4rt.InjectResult, error) {
	id := d.tr.begin("switchsim.inject")
	defer d.tr.end(id)
	return d.sw.InjectFrame(req)
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	load, preflight, entries, boot, push time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.load + s.preflight + s.entries + s.boot + s.push
}

// stack is one freshly set-up campaign target: the model, its entry
// set, and a newly booted switch behind a loopback p4rt server with one
// client connection, the path `switchv -connect` takes to switchd.
type stack struct {
	prog    *ir.Program
	info    *p4info.Info
	dead    map[string]bool
	entries []*pdpi.Entry
	sw      *switchsim.Switch
	srv     *p4rt.Server
	cli     *clientDev
	srvDev  *serverDev
	h       *switchv.Harness
}

// newStack sets up one campaign target. The model is parsed and compiled
// from source each time (models.Load would hand back a memoized
// program, and the preflight memo is keyed on the program), so every
// set-up pays the full cost a fresh `switchv` process pays. Entries are
// generated only when n > 0.
func newStack(role string, n int, seed int64, faults []switchsim.Fault, tr *tracer) (*stack, setupTimes, error) {
	var ts setupTimes
	st := &stack{}
	t := time.Now()
	src, err := models.Source(role)
	if err != nil {
		return nil, ts, err
	}
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, ts, fmt.Errorf("parsing %s: %w", role, err)
	}
	if st.prog, err = ir.Compile(ast); err != nil {
		return nil, ts, fmt.Errorf("compiling %s: %w", role, err)
	}
	ts.load = time.Since(t)

	t = time.Now()
	st.info = p4info.New(st.prog)
	crep := check.Cached(st.prog)
	if crep.HasErrors() {
		return nil, ts, fmt.Errorf("model %s fails preflight:\n%s", role, crep.Text())
	}
	st.dead = crep.UnreachableSet()
	ts.preflight = time.Since(t)

	if n > 0 {
		t = time.Now()
		if st.entries, err = workload.Entries(st.prog, n, seed); err != nil {
			return nil, ts, err
		}
		ts.entries = time.Since(t)
	}

	t = time.Now()
	st.sw = switchsim.New(role, faults...)
	st.srvDev = &serverDev{sw: st.sw, tr: tr}
	st.srv = p4rt.NewServer(st.srvDev, nil)
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, ts, err
	}
	cli, err := p4rt.Dial(addr.String())
	if err != nil {
		st.close()
		return nil, ts, err
	}
	st.cli = &clientDev{cli: cli, tr: tr}
	st.h = switchv.New(st.info, st.cli, st.cli)
	ts.boot = time.Since(t)

	t = time.Now()
	if err := st.h.PushPipeline(); err != nil {
		st.close()
		return nil, ts, fmt.Errorf("pushing pipeline: %w", err)
	}
	ts.push = time.Since(t)
	return st, ts, nil
}

// close tears the stack down: client, server, then the switch, whose
// closed packet-in channel ends the server's fan-out goroutine.
func (st *stack) close() {
	if st.cli != nil {
		st.cli.cli.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.sw != nil {
		st.sw.Close()
	}
}

// store builds the pdpi view of the stack's entry set, as RunDataPlane
// does after installing it.
func (st *stack) store() (*pdpi.Store, error) {
	store := pdpi.NewStore()
	for _, e := range st.entries {
		if err := store.Insert(e); err != nil {
			return nil, err
		}
	}
	return store, nil
}
