package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// tally counts what a stretch of demands came to.
type tally struct{ demands, failed, wrong int }

func (t *tally) add(v verdict) {
	t.demands++
	switch v {
	case failed:
		t.failed++
	case wrongDelivered:
		t.wrong++
	}
}

func (t *tally) merge(o tally) {
	t.demands += o.demands
	t.failed += o.failed
	t.wrong += o.wrong
}

// ---------------------------------------------------------------------------
// The serial phase: latency

// serial is what the serial phase measured: one client, one demand in
// flight, sending every request of the table twice in a row — through
// the mediator, then directly to the old release. Entry i of both
// slices is the same request, microseconds apart, so whatever the
// machine and the scheduler were doing then weighs on both.
type serial struct {
	mediated, direct []int64 // latencies in ns, in the order measured
	m, d             tally
}

func runSerial(c *consumer, mediated, direct *target, length time.Duration) *serial {
	// Room for the fastest machine seen so far; append grows past it.
	room := int(length / (30 * time.Microsecond))
	s := &serial{mediated: make([]int64, 0, room), direct: make([]int64, 0, room)}
	stop := time.Now().Add(length)
	for i := 0; time.Now().Before(stop); i++ {
		lat, v := c.demand(mediated, i)
		s.mediated = append(s.mediated, int64(lat))
		s.m.add(v)
		lat, v = c.demand(direct, i)
		s.direct = append(s.direct, int64(lat))
		s.d.add(v)
	}
	return s
}

// window is a stretch of the serial phase, each side's latencies sorted.
type window struct{ mediated, direct []int64 }

const (
	// tailSamples is how many samples must lie beyond a window's p99 for
	// the percentile to mean something: 40 beyond, so 4000 in the window.
	// A median needs a tenth of that.
	tailSamples      = 40
	p99WindowSamples = 100 * tailSamples
	p50WindowSamples = p99WindowSamples / 10
	maxWindows       = 12
)

// windows cuts the phase into up to maxWindows stretches of equal
// sample count, none smaller than least unless the whole phase is: for
// its p99 a fast workload gets twelve windows, a workload of 3000
// demands a second gets eight.
func (s *serial) windows(least int) []window {
	n := len(s.mediated)
	count := min(max(n/least, 1), maxWindows)
	ws := make([]window, count)
	for i := range ws {
		ws[i] = s.window(i*n/count, (i+1)*n/count)
	}
	return ws
}

// whole is the phase as one window.
func (s *serial) whole() window { return s.window(0, len(s.mediated)) }

func (s *serial) window(from, to int) window {
	w := window{mediated: slices.Clone(s.mediated[from:to]), direct: slices.Clone(s.direct[from:to])}
	slices.Sort(w.mediated)
	slices.Sort(w.direct)
	return w
}

// quantileRatio is the median over windows of the mediated q-quantile
// divided by the direct one.
func quantileRatio(ws []window, q float64) float64 {
	ratios := make([]float64, len(ws))
	for i, w := range ws {
		ratios[i] = quantile(w.mediated, q) / quantile(w.direct, q)
	}
	return median(ratios)
}

// ---------------------------------------------------------------------------
// Blocks: capacity, CPU, allocations

// block is what one block measured: the demands of every client between
// two boundaries, and the process's CPU time and allocation counters
// read at those boundaries. Those counters are the whole process's, so
// a block sends demands one way only.
type block struct {
	tally
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func (b *block) perSecond() float64       { return float64(b.demands) / b.wall.Seconds() }
func (b *block) cpuPerDemand() float64    { return float64(b.cpu) / float64(b.demands) }
func (b *block) allocsPerDemand() float64 { return float64(b.mallocs) / float64(b.demands) }

func (b *block) merge(o *block) {
	b.tally.merge(o.tally)
	b.wall += o.wall
	b.cpu += o.cpu
	b.mallocs += o.mallocs
	b.bytes += o.bytes
}

// pair is one mediated block and the direct block that followed it:
// adjacent in time, so that what the machine was doing meanwhile weighs
// on both and cancels in their ratio.
type pair struct{ mediated, direct block }

// runPairs runs pairs of blocks — every client sending mediated demands,
// then every client sending direct ones — for the given time.
func runPairs(consumers []*consumer, mediated, direct *target, length, blockLen time.Duration, minPairs int) []pair {
	pairs := make([]pair, max(int(length/(2*blockLen)), minPairs))
	for i := range pairs {
		pairs[i].mediated = runBlock(consumers, mediated, blockLen)
		pairs[i].direct = runBlock(consumers, direct, blockLen)
	}
	return pairs
}

func runBlock(consumers []*consumer, t *target, length time.Duration) block {
	var (
		b      block
		mu     sync.Mutex
		wg     sync.WaitGroup
		m0, m1 runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	stop := start.Add(length)
	for _, c := range consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			for i := c.first; time.Now().Before(stop); i++ {
				_, v := c.demand(t, i)
				mine.add(v)
			}
			mu.Lock()
			b.tally.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	b.wall = time.Since(start)
	b.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	b.mallocs = m1.Mallocs - m0.Mallocs
	b.bytes = m1.TotalAlloc - m0.TotalAlloc
	return b
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: user and system time of
// every thread of the process, at the scheduler's resolution.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// medianOfPairs is how the metrics that rest on blocks are formed: the
// statistic of each pair, mediated against its adjacent direct block,
// and the median of those over the phase's pairs.
func medianOfPairs(pairs []pair, stat func(mediated, direct *block) float64) float64 {
	values := make([]float64, len(pairs))
	for i := range pairs {
		values[i] = stat(&pairs[i].mediated, &pairs[i].direct)
	}
	return median(values)
}

// totals adds up each side of the pairs.
func totals(pairs []pair) (mediated, direct block) {
	for i := range pairs {
		mediated.merge(&pairs[i].mediated)
		direct.merge(&pairs[i].direct)
	}
	return mediated, direct
}

// ---------------------------------------------------------------------------
// Arithmetic

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func mean(samples []int64) float64 {
	sum := int64(0)
	for _, v := range samples {
		sum += v
	}
	return float64(sum) / float64(len(samples))
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := slices.Clone(values)
	slices.Sort(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}
