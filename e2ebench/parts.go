package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// campaignsPerProcess is how many timed campaigns one process runs. A
// timed run spreads its campaigns over several fresh processes, one
// after another: the RPC-bound timings (dp testing_s and batch_ms.p50)
// shift by about 5% from one process to the next, twice what they
// shift between blocks of campaigns in one process, and pooling the
// samples of several processes averages that out.
const campaignsPerProcess = 6

// timedCampaigns is how many campaigns a timed run measures: as many
// as take --seconds on the reference machine, at least one. The count
// is fixed, not timed, so a run's ops and wrong verdicts depend only on
// its arguments.
func (r *run) timedCampaigns() int {
	return max(1, int(math.Ceil(r.seconds.Seconds()/r.w.campaign.Seconds())))
}

// part is what one process of a timed run hands back: its samples,
// counts, checks and canonical outcome.
type part struct {
	Samples map[string]sample `json:"samples"`
	Extras  map[string]sample `json:"extras"`
	Units   map[string]string `json:"units"`
	Ops     int               `json:"ops"`
	Failed  int               `json:"failed"`
	Errors  []string          `json:"errors"`
	Notes   []string          `json:"notes"`
	Canon   string            `json:"canon"`
}

// runTimed is the timed run: the campaigns, in parts, then the
// untimed known-answer checks and set-up padding in this process.
func (r *run) runTimed(stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	n := r.timedCampaigns()
	procs := max(1, n/campaignsPerProcess)
	var peakKiB int64
	for i := range procs {
		k := n / procs
		if i < n%procs {
			k++
		}
		cmd := exec.Command(exe, "--workload", r.w.name, "--out", r.out, "--campaigns", strconv.Itoa(k))
		cmd.Stderr = stderr
		out, err := cmd.Output() // waits for the process to end
		if err != nil {
			return fmt.Errorf("part %d of the timed run: %w", i, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			peakKiB = max(peakKiB, ru.Maxrss) // Linux reports ru_maxrss in KiB
		}
		var p part
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &p); err != nil {
			return fmt.Errorf("part %d of the timed run: %w", i, err)
		}
		for name, s := range p.Samples {
			r.metric(name, p.Units[name], s)
		}
		for name, s := range p.Extras {
			r.extra(name, p.Units[name], s)
		}
		r.ops += p.Ops
		r.failed += p.Failed
		r.errs = append(r.errs, p.Errors...)
		if i == 0 {
			r.notes = append(r.notes, p.Notes...)
		}
		r.checkCanon(p.Canon)
	}
	r.note("timed run: %d campaigns in %d processes", n, procs)
	// Peak RSS of the largest part. It is printed but not gated: it
	// jumps between two levels from run to run depending on when the
	// collector starts its cycles.
	r.extra("peak_rss_mb", "MB", sample{float64(peakKiB) / 1024})

	if r.w.entries > 0 {
		err = r.knownAnswerDP()
	} else {
		err = r.knownAnswerCP()
	}
	if err != nil {
		return err
	}
	r.padSetups()
	return nil
}

// recordSetups adds this process's set-ups to setup_s.
func (r *run) recordSetups() {
	var s sample
	for _, ts := range r.setups {
		s = append(s, ts.total().Seconds())
	}
	r.metric("setup_s", "s", s)
}

// writePart prints this process's part of a timed run as one JSON line.
func (r *run) writePart(stdout, stderr io.Writer, err error) int {
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", r.w.name, err)
		return 1
	}
	p := part{Samples: r.samples, Extras: r.extraSamples, Units: r.units, Ops: r.ops, Failed: r.failed,
		Errors: r.errs, Notes: r.notes, Canon: r.canon}
	if err := json.NewEncoder(stdout).Encode(p); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}
