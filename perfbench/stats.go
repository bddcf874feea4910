package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none); xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between closest ranks (the "inclusive" definition).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLadder lists the tail percentiles a timing may be reported at, from
// the highest down.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest percentile of tailLadder, capped at
// want, that leaves at least ten of n samples strictly beyond it. A p99
// over 300 samples rests on three values; reporting it would read noise
// as a tail, so such a sample falls back to the p95 (15 beyond) instead.
// With fewer than 20 samples the median is the only honest figure.
func tailPercentile(n int, want float64) float64 {
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if float64(n)*(1-q) >= 10-1e-9 { // 1-0.9 is not exactly 0.1
			return q
		}
	}
	return 0.5
}

// tail reports the sample at tailPercentile(len(xs), want) together with
// the percentile actually used.
func tail(xs []float64, want float64) (value, q float64) {
	s := sortedCopy(xs)
	q = tailPercentile(len(s), want)
	return quantile(s, q), q
}

// request is one open-loop request's timeline: when the schedule said it
// was due, when the generator actually dispatched it, and when its answer
// was complete.
type request struct {
	due, sent, done time.Duration // offsets from the schedule origin
}

// latency is measured from the due time, not the send time: a generator
// or server stall delays every request queued behind it, and timing from
// the send would hide exactly that wait.
func (r request) latency() time.Duration { return r.done - r.due }

// lag is how late the generator dispatched the request.
func (r request) lag() time.Duration { return r.sent - r.due }

// openLoop summarises a finished open-loop pass.
type openLoop struct {
	latMs []float64 // per request, from due time
	lagMs []float64 // per request, generator lateness
	// span runs from the first due time to the last completion.
	span time.Duration
}

func summarizeOpenLoop(reqs []request) openLoop {
	var out openLoop
	if len(reqs) == 0 {
		return out
	}
	first, last := reqs[0].due, reqs[0].done
	for _, r := range reqs {
		out.latMs = append(out.latMs, ms(r.latency()))
		out.lagMs = append(out.lagMs, ms(r.lag()))
		if r.due < first {
			first = r.due
		}
		if r.done > last {
			last = r.done
		}
	}
	out.span = last - first
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
