package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile-count rule: a reported percentile must have
// at least this many samples beyond it, or a lower percentile is reported
// under a name that says so.
const minBeyond = 10

// dist is a sample of one quantity (latencies in ms, sizes, ratios).
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = false }

func (d *dist) n() int { return len(d.v) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// sample, or NaN when it is empty.
func (d *dist) quantile(q float64) float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(d.v)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d.v) {
		rank = len(d.v) - 1
	}
	return d.v[rank]
}

// beyond is the number of samples strictly ranked after the q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// supports reports whether a sample of n values supports the q-quantile
// under the count rule.
func supports(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// pct is one reported percentile: its name says which percentile it is,
// and it carries its sample count.
type pct struct {
	name  string
	q     float64
	value float64
	n     int
}

// tail returns the requested percentile of d if the sample supports it,
// otherwise the highest of p90, p50 that it does, named accordingly.
// ok is false when not even the median has enough samples beyond it.
func tail(d *dist, prefix string, q float64) (pct, bool) {
	for _, c := range []float64{q, 0.9, 0.5} {
		if c > q {
			continue
		}
		if supports(d.n(), c) {
			return pct{name: prefix + pctSuffix(c), q: c, value: d.quantile(c), n: d.n()}, true
		}
	}
	return pct{name: prefix + pctSuffix(q), q: q, value: math.NaN(), n: d.n()}, false
}

func pctSuffix(q float64) string {
	switch q {
	case 0.5:
		return "_p50"
	case 0.9:
		return "_p90"
	case 0.99:
		return "_p99"
	}
	return fmt.Sprintf("_q%g", q)
}

// median of a small set of repeated measurements.
func median(xs []float64) float64 {
	d := &dist{v: append([]float64(nil), xs...)}
	if d.n()%2 == 1 {
		return d.quantile(0.5)
	}
	sort.Float64s(d.v)
	return (d.v[d.n()/2-1] + d.v[d.n()/2]) / 2
}

// stepResult is what a capacity-sweep step observed at one offered rate.
type stepResult struct {
	Rate        float64 // offered req/s
	Achieved    float64 // completed req/s over the step
	P99         float64 // ms, from the due time
	N           int
	Failed      int
	BacklogMid  int // due-but-unsent requests at the step's midpoint
	BacklogEnd  int // ... and at its end
	Unsupported bool
}

// sweepLimitMS is the latency limit of the capacity sweep: p99 of all ops.
const sweepLimitMS = 25

// passes is the sweep's acceptance rule for one step: p99 within the
// limit with enough samples to support it, nothing failed, and a client
// backlog that did not grow over the step.
func (r stepResult) passes() bool {
	if r.N == 0 || r.Unsupported || r.Failed > 0 || r.P99 > sweepLimitMS {
		return false
	}
	return r.BacklogEnd <= r.BacklogMid+2
}

// Sweep rate factors. Up/down ramps move by rampFactor; once a pass and
// a fail bracket the knee more than maxGap apart, one geometric midpoint
// is tried, so the reported step and its failing neighbour are at most
// maxGap apart.
const (
	rampFactor = 1.2
	maxGap     = 1.1
	maxSteps   = 5
)

// capacitySweep runs the stop rule: starting at start req/s, ramp up by
// rampFactor while steps pass (down while they fail), then bisect the
// bracketing pair geometrically until the pass and the fail are at most
// maxGap apart. It returns the achieved rate of the highest passing step
// (0 when none passed) and every step run.
func capacitySweep(start float64, run func(rate float64) stepResult) (float64, []stepResult) {
	var steps []stepResult
	var best *stepResult
	lo, hi := 0.0, 0.0 // highest pass, lowest fail
	rate := start
	for len(steps) < maxSteps {
		r := run(rate)
		steps = append(steps, r)
		if r.passes() {
			if best == nil || r.Rate > best.Rate {
				rr := r
				best = &rr
			}
			lo = rate
		} else if hi == 0 || rate < hi {
			hi = rate
		}
		switch {
		case hi == 0:
			rate = lo * rampFactor
		case lo == 0:
			rate = hi / rampFactor
		case hi/lo > maxGap*1.0001:
			rate = math.Sqrt(lo * hi)
		default:
			return best.Achieved, steps
		}
	}
	if best == nil {
		return 0, steps
	}
	return best.Achieved, steps
}
