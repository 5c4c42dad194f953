package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one campaign share a
// campaign id; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name     string `json:"name"`
	Campaign int    `json:"campaign"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory. A nil *tracer records nothing, so the
// timed (untraced) runs pay one nil check per layer call.
//
// The stack of open spans is shared by every goroutine: the harness
// issues one RPC at a time over one connection, and the server-side
// device call runs while the client-side call that caused it is still
// open, so the top of the stack is the causing span.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	campaign int
	spans    []span
	open     []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Campaign: t.campaign, Parent: parent,
		StartNS: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// startCampaign gives the spans recorded from now on a new campaign id.
func (t *tracer) startCampaign() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.campaign++
	return t.campaign
}

// layerStats sums, per span name within one campaign, the call count,
// the total duration and the self time (duration minus the time its
// direct children cover).
type layerStats struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) layers(campaign int) map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Campaign == campaign && s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		if s.Campaign != campaign {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.Total += s.dur()
		ls.Self += s.dur() - child[i]
	}
	return out
}

// write dumps every span as JSON, in the order they were opened (a
// span's index in the list is what Parent refers to).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
