package main

import (
	"math"
	"sort"
)

// Outcome of one request as judged by the answer checks.
const (
	resultOK       uint8 = iota // full or cached answer that passed its check
	resultDegraded              // dropped or shed low-fidelity answer
	resultFailed                // error, wrong answer, or un-executed write
)

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// spread summarises one metric's values across a run's segments.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func spreadOf(vals []float64) spread {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	return spread{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// Latency histograms have histPerOctave log-spaced buckets per doubling from
// 1 ns to 2^histOctaves ns, so a quantile read from one is within 0.07% of
// the sample quantile. They keep the generator's memory constant however
// many requests a run makes, which keeps the process's garbage-collection
// pacing independent of the run's length.
const (
	histPerOctave = 1024
	histOctaves   = 40
)

type hist struct {
	counts []uint32
	n      int
}

func newHist() hist { return hist{counts: make([]uint32, histPerOctave*histOctaves)} }

func (h *hist) add(ns int64) {
	i := 0
	if ns > 1 {
		i = min(int(math.Log2(float64(ns))*histPerOctave), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 when empty), placing
// the samples of a bucket evenly, in log space, across its width.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			pos := (rank - cum + 0.5) / float64(c)
			return math.Exp2((float64(i) + pos) / histPerOctave)
		}
		cum += float64(c)
	}
	return math.Exp2(float64(len(h.counts)) / histPerOctave)
}

// tally accumulates the outcomes of one phase's requests.
type tally struct {
	sent, ok, degraded, failed int
	class1Sent, class1OK       int
	perClassSent               [4]int
	perClassDegraded           [4]int
	lat, class1Lat, lag        hist // lat: due → answer, over correct answers
}

func newTally() *tally {
	return &tally{lat: newHist(), class1Lat: newHist(), lag: newHist()}
}

func (t *tally) add(lat, lag int64, class, result uint8) {
	t.sent++
	if int(class) < len(t.perClassSent) {
		t.perClassSent[class]++
	}
	if class == 1 {
		t.class1Sent++
	}
	t.lag.add(lag)
	switch result {
	case resultOK:
		t.ok++
		t.lat.add(lat)
		if class == 1 {
			t.class1OK++
			t.class1Lat.add(lat)
		}
	case resultDegraded:
		t.degraded++
		if int(class) < len(t.perClassDegraded) {
			t.perClassDegraded[class]++
		}
	default:
		t.failed++
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
