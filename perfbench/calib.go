package main

import (
	"sort"
	"time"
)

// Host-speed calibration. The 2-vCPU reference VM changes speed by
// itself: another guest's load slows every timing of a run alike, by up
// to a third for minutes at a time, so that ten runs of the same code
// spread past the bounds and two sets of runs disagree. Each run
// therefore times a fixed calibration kernel at quiet moments, never
// while the program works: after the collected heap before each set-up
// and each build, and at the end of each round's traffic or search
// window. The kernel calls no program code: it sorts freshly allocated
// pseudo-random keys, which exercises the allocator, calls and
// unpredictable branches, as the program's HTTP, JSON and graph-search
// paths do. In trial runs its time tracked most of the runs' timings
// with correlation 0.8–0.95 (routed-read's query latencies less well),
// where AND-popcount loops, a dependent walk over a 2 MiB table, or the
// same sort on every CPU at once tracked them worse.
//
// Every end-to-end timing is reported at the reference speed: measured
// × calibRefMS / the run's calibration time (a rate is divided by that
// factor). The provenance line keeps the measured figures and the
// calibration time. A change to the program cannot move the kernel, so
// a slower program still reads slower; a slower host does not.

const (
	calibKeys     = 4096 // keys sorted per sample
	calibPerPoint = 12   // samples per calibration point
	calibRefMS    = 0.58 // the kernel's median time over the trial runs on the reference VM
)

type calibrator struct {
	points []float64 // per calibration point: the median of its samples, ms
	sink   uint64
}

// kernel runs one sample's fixed work.
func (c *calibrator) kernel() {
	keys := make([]uint64, calibKeys)
	for i := range keys {
		keys[i] = splitmix(uint64(i))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	c.sink += keys[0]
}

// point times calibPerPoint samples and keeps their median, which drops
// a sample the scheduler interrupted.
func (c *calibrator) point() {
	samples := make([]float64, calibPerPoint)
	for i := range samples {
		t0 := time.Now()
		c.kernel()
		samples[i] = ms(time.Since(t0))
	}
	c.points = append(c.points, median(samples))
}

// ms is the run's calibration time: the mean over its points, which
// weighs the host's slow and fast spells by how long each held, as the
// run's pooled timings do.
func (c *calibrator) ms() float64 { return mean(c.points) }

// factor is what a run's times are multiplied by to read at the
// reference speed.
func (c *calibrator) factor() float64 {
	if c.ms() <= 0 {
		return 1
	}
	return calibRefMS / c.ms()
}
