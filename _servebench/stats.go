package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the percentile is a guess about the tail.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of sorted, and
// false when fewer than minBeyond samples lie beyond its rank.
func percentile(sorted []float64, pct int) (float64, bool) {
	n := len(sorted)
	rank := (pct*n + 99) / 100 // ceil(pct/100 · n), in integers
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// geomean is the geometric mean of xs, which must be positive.
func geomean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// summary is the end-to-end view of one timed run.
type summary struct {
	attempted, succeeded int
	elapsed              time.Duration
	latMS                []float64 // successful requests, sorted
	shapeLatMS           map[int][]float64
	// failures counts failed requests by "kind shape".
	failures map[string]int
}

func summarize(samples []sample, shapes []*shape, elapsed time.Duration) summary {
	s := summary{attempted: len(samples), elapsed: elapsed, failures: map[string]int{}, shapeLatMS: map[int][]float64{}}
	for _, x := range samples {
		if x.kind != "" {
			s.failures[x.kind+" "+shapes[x.shape].id]++
			continue
		}
		s.succeeded++
		s.latMS = append(s.latMS, ms(x.lat))
		s.shapeLatMS[x.shape] = append(s.shapeLatMS[x.shape], ms(x.lat))
	}
	sort.Float64s(s.latMS)
	return s
}

// mismatches counts results that differed from the oracle.
func (s summary) mismatches() int {
	n := 0
	for k, c := range s.failures {
		if strings.HasPrefix(k, kindMismatch+" ") {
			n += c
		}
	}
	return n
}

func (s summary) failed() int { return s.attempted - s.succeeded }

func (s summary) failedFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed()) / float64(s.attempted)
}

func (s summary) qps() float64 { return float64(s.succeeded) / s.elapsed.Seconds() }

// bestMS is the geometric mean, over the shapes that succeeded at least
// once, of each shape's fastest successful request. A shared host slows
// most requests by a varying amount for seconds at a time, but a run
// still gets a few less disturbed requests of every shape, so the
// fastest one moves less with the neighbours than a mean or a median.
func (s summary) bestMS() float64 {
	var ids []int
	for si := range s.shapeLatMS {
		ids = append(ids, si)
	}
	sort.Ints(ids)
	best := make([]float64, 0, len(ids))
	for _, si := range ids {
		best = append(best, slices.Min(s.shapeLatMS[si]))
	}
	return geomean(best)
}

// failureLines renders the failure breakdown, one "kind shape count"
// line each, sorted.
func (s summary) failureLines() []string {
	var out []string
	for k, n := range s.failures {
		out = append(out, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTest checks the percentile rule and the failure accounting on
// synthetic samples; a benchmark whose arithmetic is wrong must not
// report numbers.
func selfTest() error {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, pct int
		want   float64
		ok     bool
	}{
		{19, 50, 0, false}, {20, 50, 10, true}, {21, 50, 11, true},
		{99, 90, 0, false}, {100, 90, 90, true}, {110, 90, 99, true},
		{0, 50, 0, false}, {10, 0, 0, false},
	} {
		got, ok := percentile(ramp(c.n), c.pct)
		if ok != c.ok || (ok && got != c.want) {
			return fmt.Errorf("selftest: p%d of %d samples = %v,%v, want %v,%v", c.pct, c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-int(got) < minBeyond {
			return fmt.Errorf("selftest: p%d of %d samples has %d beyond it", c.pct, c.n, c.n-int(got))
		}
	}

	shapes := []*shape{{id: "a"}, {id: "b"}}
	samples := []sample{
		{shape: 0, lat: 3 * time.Millisecond},
		{shape: 1, lat: time.Millisecond, kind: "watchdog"},
		{shape: 1, lat: time.Millisecond, kind: "watchdog"},
		{shape: 0, lat: 2 * time.Millisecond, kind: kindMismatch},
		{shape: 1, lat: 1 * time.Millisecond},
	}
	s := summarize(samples, shapes, 2*time.Second)
	want := "oracle_mismatch a 1|watchdog b 2"
	if got := strings.Join(s.failureLines(), "|"); got != want {
		return fmt.Errorf("selftest: failures %q, want %q", got, want)
	}
	if s.attempted != 5 || s.failed() != 3 || s.failedFrac() != 0.6 || s.qps() != 1 {
		return fmt.Errorf("selftest: attempted %d failed %d frac %v qps %v, want 5 3 0.6 1", s.attempted, s.failed(), s.failedFrac(), s.qps())
	}
	if fmt.Sprint(s.latMS) != "[1 3]" {
		return fmt.Errorf("selftest: latencies %v, want successes only [1 3]", s.latMS)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		return fmt.Errorf("selftest: geomean of 1, 4, 16 = %v, want 4", g)
	}
	s = summarize([]sample{
		{shape: 0, lat: 8 * time.Millisecond}, {shape: 1, lat: 2 * time.Millisecond},
		{shape: 0, lat: 4 * time.Millisecond}, {shape: 1, lat: time.Millisecond},
		{shape: 1, lat: time.Microsecond, kind: "watchdog"},
	}, shapes, time.Second)
	if b := s.bestMS(); math.Abs(b-2) > 1e-12 {
		return fmt.Errorf("selftest: best latency %v, want 2, the geomean of the fastest successes 4 and 1", b)
	}
	return nil
}
