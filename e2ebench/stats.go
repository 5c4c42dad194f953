package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// tail is the highest percentile that still has at least 10 samples
// beyond it: the 11th-largest value. With 10 samples or fewer there is
// no such percentile and it returns the maximum.
func (s sample) tail() float64 {
	c := s.sorted()
	switch n := len(c); {
	case n == 0:
		return 0
	case n <= 10:
		return c[n-1]
	default:
		return c[n-11]
	}
}

// gaps turns a series of start times into the intervals between
// consecutive starts.
func gaps(ts []time.Time) sample {
	var s sample
	for i := 1; i < len(ts); i++ {
		s = append(s, float64(ts[i].Sub(ts[i-1]))/float64(time.Millisecond))
	}
	return s
}

// stealTime is the machine-wide CPU time stolen by the hypervisor, from
// /proc/stat (0 where unavailable).
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// heapWatch records the largest live heap a garbage collection leaves
// behind. A finalizer on a throwaway object runs once after each
// collection, reads /gc/heap/live:bytes and arms the next one. Unlike
// the process's peak RSS, this does not depend on where in a campaign
// the collector happens to start a cycle.
type heapWatch struct {
	mu   sync.Mutex
	peak uint64
}

type gcSentinel struct{ _ [64]byte }

func newHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			w.mu.Lock()
			w.peak = max(w.peak, s[0].Value.Uint64())
			w.mu.Unlock()
		}
		w.arm()
	})
}

// reset forgets the collections seen so far.
func (w *heapWatch) reset() {
	w.mu.Lock()
	w.peak = 0
	w.mu.Unlock()
}

// peakMB is the largest live heap since the last reset, in MiB.
func (w *heapWatch) peakMB() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return float64(w.peak) / (1 << 20)
}
