// Command e2ebench is the SwitchV end-to-end benchmark: Table 3
// campaigns against a freshly booted in-process switchsim behind a
// loopback p4rt server, with known-answer verdict checks and a traced
// per-layer run. See README.md for the workloads and metrics.
//
//	bash e2ebench/run.sh --workload dp-middleblock-798 --seed 42 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name    string
	role    string
	entries int  // data-plane entry count (0 = control-plane workload)
	warm    bool // data plane with a per-goal cache filled by an untimed campaign
	batches int  // control-plane batch count
	// campaign is about how long one timed campaign takes on a 2-vCPU
	// Xeon VM with nothing else running; it sets how many campaigns a
	// run of --seconds times.
	campaign time.Duration
}

// table3Seed seeds the inputs of every timed and traced campaign: the
// entry sets of the Table 3 instances and the fuzzer stream, as in
// bench_test.go. How much SAT work an entry set needs varies about 2x
// from seed to seed (README.md), which no per-run repetition can average
// out. The run's --seed draws the inputs of the known-answer checks.
const table3Seed = 42

// cpBatches is the fixed batch count of cp-fuzz-middleblock.
const cpBatches = 200

var workloads = []workloadSpec{
	{name: "dp-middleblock-798", role: "middleblock", entries: 798, campaign: 850 * time.Millisecond},
	{name: "dp-wan-1314", role: "wan", entries: 1314, campaign: 15 * time.Second},
	{name: "dp-middleblock-798-warm", role: "middleblock", entries: 798, warm: true, campaign: 800 * time.Millisecond},
	{name: "cp-fuzz-middleblock", role: "middleblock", batches: cpBatches, campaign: 6 * time.Second},
}

// metricValue is one reported metric.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// run is one benchmark invocation.
type run struct {
	w       workloadSpec
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *tracer
	out     string
	commit  string

	part    int // campaigns this process times as one part of a timed run (0: not a part)
	setups  []setupTimes
	heap    *heapWatch
	metrics map[string]metricValue // the summary line's metrics
	extras  map[string]metricValue // printed and kept in the result file only

	// Samples of the timed run's metrics, pooled over its parts.
	samples, extraSamples map[string]sample
	units                 map[string]string

	ops    int
	failed int
	errs   []string
	notes  []string
	canon  string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "dp-middleblock-798", "workload name")
	seed := fs.Int64("seed", table3Seed, "seed of the known-answer checks' entry set and fuzzer stream")
	secs := fs.Int("seconds", 20, "how long the timed campaigns run on the reference machine")
	trace := fs.Int("trace", 0, "1 = the traced per-layer run instead of the timed run")
	out := fs.String("out", ".bench_build/e2ebench-out", "directory for result, trace and canonical-outcome files")
	commit := fs.String("commit", "unknown", "commit recorded in the result file")
	part := fs.Int("campaigns", 0, "internal: time this many campaigns and print their samples as one part of a timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := &run{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, part: *part,
		out: *out, commit: *commit, metrics: map[string]metricValue{}, extras: map[string]metricValue{},
		samples: map[string]sample{}, extraSamples: map[string]sample{}, units: map[string]string{}}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			r.w, found = w, true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if r.trace {
		r.tr = newTracer()
	}
	// One processor: the harness, the loopback server and the garbage
	// collector then share one vCPU instead of handing work across two,
	// which a shared host gives out unevenly. With the second vCPU kept
	// busy, a cp campaign took 41% longer at GOMAXPROCS=2 and 3.5%
	// longer at 1.
	runtime.GOMAXPROCS(1)
	r.heap = newHeapWatch()
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}

	steal0 := stealTime()
	var err error
	switch {
	case !r.trace && r.part == 0:
		err = r.runTimed(stderr)
	case r.w.entries > 0:
		err = r.runDataPlane()
	default:
		err = r.runControlPlane()
	}
	if r.part > 0 {
		return r.writePart(stdout, stderr, err)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", r.w.name, err)
		return 1
	}
	if r.trace {
		r.setupLayers()
	}
	r.compareCanonAcrossRuns()
	r.note("CPU time the hypervisor stole from this machine during the run: %.2fs", (stealTime() - steal0).Seconds())
	return r.report(stdout, stderr)
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check: the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// metric adds samples of an end-to-end metric; the run reports their
// median.
func (r *run) metric(name, unit string, s sample) {
	r.samples[name] = append(r.samples[name], s...)
	r.units[name] = unit
}

// extra adds samples of a metric whose median is printed and kept in
// the result file but is not in the summary line.
func (r *run) extra(name, unit string, s sample) {
	r.extraSamples[name] = append(r.extraSamples[name], s...)
	r.units[name] = unit
}

// medians turns the pooled samples into the reported metrics.
func (r *run) medians() {
	for name, s := range r.samples {
		r.metrics[name] = metricValue{Value: s.median(), Unit: r.units[name], Samples: len(s)}
	}
	for name, s := range r.extraSamples {
		r.extras[name] = metricValue{Value: s.median(), Unit: r.units[name], Samples: len(s)}
	}
}

// layer records a per-layer metric of the traced run.
func (r *run) layer(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit, Samples: 1}
}

// checkCanon requires every campaign of the run to reach the same
// canonical outcome.
func (r *run) checkCanon(canon string) {
	switch {
	case r.canon == "":
		r.canon = canon
	case r.canon != canon:
		r.fail("campaigns of one run reached different canonical outcomes")
	}
}

// compareCanonAcrossRuns compares the run's canonical outcome with the
// one an earlier run of the same binary and workload stored, and stores
// it when there is none. The timed and traced campaigns run the same
// inputs whatever the run's seed.
func (r *run) compareCanonAcrossRuns() {
	exe, err := os.Executable()
	var build string
	if err == nil {
		if data, rerr := os.ReadFile(exe); rerr == nil {
			sum := sha256.Sum256(data)
			build = hex.EncodeToString(sum[:8])
		}
	}
	if build == "" {
		r.note("cross-run determinism check skipped: cannot fingerprint the binary")
		return
	}
	sum := sha256.Sum256([]byte(r.canon))
	digest := hex.EncodeToString(sum[:])
	path := filepath.Join(r.out, "canon", fmt.Sprintf("%s-%s.sha256", build, r.w.name))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && strings.TrimSpace(string(prev)) != digest:
		r.fail("canonical outcome differs from an earlier run (%s)", path)
	case err == nil:
		r.note("canonical outcome matches earlier runs: %s", digest[:16])
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			_ = os.WriteFile(path, []byte(digest+"\n"), 0o644) // a lost record only skips a later comparison
		}
		r.note("canonical outcome recorded: %s", digest[:16])
	default:
		r.fail("reading %s: %v", path, err)
	}
}

// minSetups is the fewest set-ups setup_s is the median of; a set-up
// takes milliseconds, so a run pads up to it however few campaigns fit.
const minSetups = 101

// padSetups sets up (and tears down) until this process has minSetups
// set-up samples, and adds them to setup_s.
func (r *run) padSetups() {
	for len(r.setups) < minSetups {
		st, ts, err := newStack(r.w.role, r.w.entries, table3Seed, nil, nil)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		st.close()
		r.setups = append(r.setups, ts)
	}
	r.recordSetups()
}

// setupLayers reports the set-up layers of the traced run as medians
// over its set-ups.
func (r *run) setupLayers() {
	var load, pre, ent sample
	for _, ts := range r.setups {
		load = append(load, ts.load.Seconds())
		pre = append(pre, ts.preflight.Seconds())
		ent = append(ent, ts.entries.Seconds())
	}
	r.layer("p4.load_s", "s", load.median())
	r.layer("check.preflight_s", "s", pre.median())
	r.layer("workload.entries_s", "s", ent.median())
}

// rpcLayers records the p4rt and switchsim layers of a traced campaign.
func (r *run) rpcLayers(st *stack, ls map[string]*layerStats) {
	var self time.Duration // client-side time outside the switch: codec and loopback
	for _, op := range []string{"write", "read", "inject", "packet_out"} {
		l := ls["p4rt."+op]
		if l == nil {
			l = &layerStats{}
		}
		self += l.Self
		if op == "packet_out" {
			continue
		}
		r.layer("p4rt."+op+"_calls", "count", float64(l.Calls))
		r.layer("p4rt."+op+"_s", "s", l.Total.Seconds())
		r.layer("switchsim."+op+"_s", "s", total(ls, "switchsim."+op).Seconds())
	}
	r.layer("p4rt.self_s", "s", self.Seconds())
	r.layer("p4rt.read_entries", "count", float64(st.cli.readEntries))
	ratio := 0.0
	if st.srvDev.updates > 0 {
		ratio = float64(st.srvDev.accepted) / float64(st.srvDev.updates)
	}
	r.layer("switchsim.accept_ratio", "ratio", ratio)
}

func total(ls map[string]*layerStats, name string) time.Duration {
	if l := ls[name]; l != nil {
		return l.Total
	}
	return 0
}

func sumTotal(ls map[string]*layerStats, names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += total(ls, n)
	}
	return d
}

// result is the record written to the result file.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	CPBatches  int                    `json:"cp_batches"`
	NumCPU     int                    `json:"num_cpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Commit     string                 `json:"commit"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	Notes      []string               `json:"notes"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extras     map[string]metricValue `json:"extra_metrics,omitempty"`
}

// report prints the human-readable lines, writes the result (and trace)
// file, and prints the JSON summary as the last line.
func (r *run) report(stdout, stderr io.Writer) int {
	r.medians()
	res := result{
		Workload: r.w.name, Seed: r.seed, Seconds: r.seconds.Seconds(), Trace: r.trace,
		CPBatches: cpBatches, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: r.commit,
		Correct: len(r.errs) == 0, Attempted: r.ops, Failed: r.failed,
		Errors: r.errs, Notes: r.notes, Metrics: r.metrics, Extras: r.extras,
	}
	fmt.Fprintf(stdout, "e2ebench %s seed=%d seconds=%d trace=%v cp_batches=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		res.Workload, res.Seed, int(res.Seconds), res.Trace, res.CPBatches, res.NumCPU, res.GOMAXPROCS, res.GoVersion, res.Commit)
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, ms := range []map[string]metricValue{r.metrics, r.extras} {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(stdout, "  %-28s %14.6g %-5s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Fprintf(stdout, "  %-28s %14d\n  %-28s %14d\n", "ops", r.ops, "ops_failed", r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", e)
	}

	base := filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d", r.w.name, r.seed, map[bool]int{false: 0, true: 1}[r.trace]))
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", data, 0o644); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing result file: %v\n", err)
		}
	}
	if r.tr != nil {
		if err := r.tr.write(base + ".spans.json"); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
		}
	}

	summary := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": r.jsonMetrics()}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// jsonMetrics is the metrics object of the summary line: value and unit.
func (r *run) jsonMetrics() map[string]any {
	out := map[string]any{}
	for n, m := range r.metrics {
		out[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}
