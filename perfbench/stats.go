package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile, so a tail figure never rests on one or two outliers.
// When a loop repeats its inputs, ten samples can all be repeats of one
// slow input, so they must also come from at least tailInputs distinct
// inputs.
const (
	tailBeyond = 10
	tailInputs = 3
)

// dist is a sorted sample of one timing, in the unit it was recorded.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// nearestRank returns the nearest-rank p-th percentile (0 < p ≤ 100).
func (d dist) nearestRank(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d) {
		rank = len(d)
	}
	return d[rank-1]
}

func (d dist) p50() float64 { return d.nearestRank(50) }

// tail returns the highest nearest-rank percentile of xs that leaves
// at least tailBeyond samples above it, from at least tailInputs
// distinct inputs, and that percentile. input[i] names the input xs[i]
// was measured on; nil means every sample has its own. With every input
// distinct the rank is n−tailBeyond, so the value is the
// (tailBeyond+1)-th largest sample; the percentile is 100·rank/n. With
// too few samples or inputs for any such percentile it returns the
// maximum and ok=false.
func tail(xs []float64, input []int) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	seen := make(map[int]bool)
	// beyond is the number of samples above the candidate rank n−beyond.
	for beyond := 1; beyond < n; beyond++ {
		i := order[n-beyond]
		if input == nil {
			seen[i] = true
		} else {
			seen[input[i]] = true
		}
		if beyond >= tailBeyond && len(seen) >= tailInputs {
			rank := n - beyond
			return xs[order[rank-1]], 100 * float64(rank) / float64(n), true
		}
	}
	return xs[order[n-1]], 100, false
}

// quartiles returns the first and third quartiles by nearest rank.
func (d dist) quartiles() (q1, q3 float64) { return d.nearestRank(25), d.nearestRank(75) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time the process has used so far, user and
// system, summed over all its threads: the caller's, the runtime's
// (collector, scheduler) and any in-process server's. On Linux this is
// the scheduler's own run time, which leaves out time the host stole
// from a virtual CPU, so on a shared host it counts the program's work
// where wall time also counts its neighbours'. The end-to-end timings
// use it for that reason; wall-clock figures are printed beside them.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPUTime is cpuTime for the calling thread alone; the caller
// must hold its thread with runtime.LockOSThread.
func threadCPUTime() time.Duration { return cpuClock(clockThreadCPUTime) }

// Linux clock ids from <time.h>.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// heapSampler polls the runtime's live-heap gauge while a timed phase
// runs. A single maximum swings with where the collector happens to
// run, so it keeps the highest sample of each heapWindow and reports
// the median of those window peaks.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	// peaks holds the highest sample of each finished window; cur is
	// the current window's.
	peaks []float64
	cur   uint64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = time.Second
	heapNote   = "median over 1 s windows of the window's peak live heap"
)

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), cur: heapInUse()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		windowStart := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				v := heapInUse()
				h.mu.Lock()
				if now.Sub(windowStart) >= heapWindow {
					h.peaks = append(h.peaks, float64(h.cur))
					h.cur, windowStart = 0, now
				}
				h.cur = max(h.cur, v)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the median window
// peak in MiB. A phase shorter than one window reports its own peak.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.peaks) == 0 {
		h.peaks = append(h.peaks, float64(max(h.cur, heapInUse())))
	}
	return newDist(h.peaks).p50() / (1 << 20)
}
