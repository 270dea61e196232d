// Package stats provides the statistics primitives shared by the simulator
// and the experiment harness: named counters, ratio helpers, summary means,
// and simple fixed-width table formatting for experiment output.
//
// The simulator is deterministic, so all statistics are plain integers and
// floats; there is no sampling or randomness here.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is a collection of named integer counters. The zero value is ready to
// use. Counters are created on first touch and iterate in sorted name order,
// which keeps experiment output stable across runs.
type Set struct {
	counters map[string]int64
}

// Add increments counter name by delta.
func (s *Set) Add(name string, delta int64) {
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += delta
}

// Inc increments counter name by one.
func (s *Set) Inc(name string) { s.Add(name, 1) }

// Get returns the current value of counter name (zero if never touched).
func (s *Set) Get(name string) int64 { return s.counters[name] }

// Names returns all counter names in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ratio returns Get(num)/Get(den), or 0 if the denominator is zero.
func (s *Set) Ratio(num, den string) float64 {
	d := s.Get(den)
	if d == 0 {
		return 0
	}
	return float64(s.Get(num)) / float64(d)
}

// Merge adds every counter in other into s.
func (s *Set) Merge(other *Set) {
	for n, v := range other.counters {
		s.Add(n, v)
	}
}

// Reset clears every counter.
func (s *Set) Reset() { s.counters = nil }

// String renders the set as "name=value" lines in sorted order.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", n, s.counters[n])
	}
	return b.String()
}

// The means and Speedup pass a NaN through (NaN <= 0 is false): a failed
// experiment cell is NaN, so every number derived from it is a gap too.

// HarmonicMean returns the harmonic mean of xs. Non-positive values make a
// harmonic mean undefined; they are rejected with a zero result, matching the
// paper's use of harmonic means over strictly positive rates.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// GeometricMean returns the geometric mean of xs (zero if any x <= 0).
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ArithmeticMean returns the arithmetic mean of xs (zero for empty input).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns the relative speedup of new over base expressed as a
// percentage: 100*(new/base - 1). A zero base yields zero.
func Speedup(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (new/base - 1)
}

// Num formats v with format (such as "%.2f"), or as FAIL when v is NaN: the
// gap a failed experiment cell, and every number derived from it, leaves in
// a table.
func Num(format string, v float64) string {
	if math.IsNaN(v) {
		return "FAIL"
	}
	return fmt.Sprintf(format, v)
}
