package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// quantile returns the q-quantile of xs (sorted in place) by the
// nearest-rank rule; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// windowP99 splits samples (in arrival order) into consecutive windows of
// n and returns the median of the windows' p99s, or the p99 of all samples
// when there is less than one window.  With n >= 1000 every window's p99
// has at least ten samples beyond it, and one stalled stretch of the run
// moves one window, not the result.
func windowP99(samples []float64, n int) float64 {
	var p99s []float64
	w := make([]float64, n)
	for i := 0; i+n <= len(samples); i += n {
		copy(w, samples[i:i+n])
		p99s = append(p99s, quantile(w, 0.99))
	}
	if len(p99s) == 0 {
		return quantile(append([]float64(nil), samples...), 0.99)
	}
	return quantile(p99s, 0.5)
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// Host steal.  On a virtual machine the hypervisor can take a vCPU away
// while the program wants it, and /proc/stat counts that time as steal.
// On a shared host it comes and goes with the neighbours' load and moves a
// throughput measured in wall time by 20% or more from one run to the
// next.  Every rate_per_s is therefore counted over active time: wall time
// less the interval's steal averaged over the vCPUs, the time the VM had
// its CPUs.  Where /proc/stat is missing, active time is wall time.

// activeClock measures one interval in wall time and in active time.
type activeClock struct {
	t0     time.Time
	steal0 time.Duration
}

func startActive() activeClock { return activeClock{time.Now(), stolen()} }

// read returns the wall time since c started and the part of it the
// hypervisor took, averaged over the vCPUs.
func (c activeClock) read() (wall, steal time.Duration) {
	wall = time.Since(c.t0)
	return wall, min(max(stolen()-c.steal0, 0), wall)
}

// activeRate returns n per second of the active part of wall.
func activeRate(n float64, wall, steal time.Duration) float64 {
	if active := wall - steal; active > 0 {
		return n / active.Seconds()
	}
	return n / wall.Seconds()
}

// stolen returns the host's steal so far, summed over the vCPUs in
// /proc/stat and divided by their number: the mean time a vCPU has lost.
// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total int64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		if len(f) > 8 {
			total, _ = strconv.ParseInt(f[8], 10, 64)
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(total) * 10 * time.Millisecond / time.Duration(cpus)
}

// splitmix64 is the input generator's mixing function: every generated
// value is a pure function of the seed and its position.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// memSampler tracks peak heap-object bytes while a timed phase runs.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak it saw.
func (m *memSampler) finish() uint64 {
	close(m.stop)
	<-m.done
	return m.peak
}

// allocs reads the process's cumulative heap allocation counters.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Registry snapshots.  Layer metrics cover only the timed phase, so the
// snapshot taken before it is subtracted from the one taken after.

func diffSnap(after, before *obs.Snapshot) *obs.Snapshot {
	out := &obs.Snapshot{}
	prev := map[string]int64{}
	for _, c := range before.Counters {
		prev[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		out.Counters = append(out.Counters, obs.CounterSnap{Name: c.Name, Value: c.Value - prev[c.Name]})
	}
	hprev := map[string]obs.HistSnap{}
	for _, h := range before.Hists {
		hprev[h.Name] = h
	}
	for _, h := range after.Hists {
		b := hprev[h.Name]
		d := obs.HistSnap{Name: h.Name, Unit: h.Unit, Zeros: h.Zeros - b.Zeros, Count: h.Count - b.Count, Sum: h.Sum - b.Sum, Max: h.Max}
		old := map[uint8]int64{}
		for _, bk := range b.Buckets {
			old[bk.Index] = bk.Count
		}
		for _, bk := range h.Buckets {
			if n := bk.Count - old[bk.Index]; n > 0 {
				d.Buckets = append(d.Buckets, obs.BucketSnap{Index: bk.Index, Count: n})
			}
		}
		out.Hists = append(out.Hists, d)
	}
	return out
}

func snapHist(s *obs.Snapshot, name string) obs.HistSnap {
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	return obs.HistSnap{}
}

func snapCounter(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// snapCounterSum sums every counter whose name has the prefix and suffix.
func snapCounterSum(s *obs.Snapshot, prefix, suffix string) int64 {
	var n int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			n += c.Value
		}
	}
	return n
}

// recorderEvents returns how many events a flight recorder has taken in
// total (its highest sequence number) and how many its rings still hold.
func recorderEvents(evs []msgcodec.BlackboxEvent) (total, retained int64) {
	for _, e := range evs {
		total = max(total, int64(e.Seq))
	}
	return total, int64(len(evs))
}
