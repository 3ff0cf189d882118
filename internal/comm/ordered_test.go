package comm

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestAllreduceOrderedSum checks the ordered reduction agrees with the
// plain sum and returns the identical result on every rank.
func TestAllreduceOrderedSum(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	results := make([][]float64, n)
	w := NewWorld(n)
	err := w.Run(func(c *Comm) {
		vals := []float64{float64(c.Rank() + 1), 10 * float64(c.Rank()+1)}
		c.AllreduceOrdered(vals, func(dst, src []float64) {
			for i := range dst {
				dst[i] += src[i]
			}
		})
		mu.Lock()
		results[c.Rank()] = append([]float64(nil), vals...)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 100} // 1+2+3+4 and 10+20+30+40
	for r, got := range results {
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("rank %d: got %v, want %v", r, got, want)
		}
	}
}

// TestAllreduceOrderedDeterministic checks the fold order of both reductions is
// rank order: with a non-commutative-in-floating-point sum, repeated runs
// must produce bitwise-identical results whichever rank arrives first.
func TestAllreduceOrderedDeterministic(t *testing.T) {
	const n = 4
	// Magnitudes chosen so (a+b)+c differs in the last ulp from permuted
	// orders: catastrophic cancellation against rank order.
	contrib := []float64{1e16, 3.14159, -1e16, 2.71828}
	// The reference: explicit ascending-rank fold.
	want := contrib[0]
	for r := 1; r < n; r++ {
		want += contrib[r]
	}
	for _, tc := range []struct {
		name   string
		reduce func(c *Comm, vals []float64)
	}{
		{"AllreduceOrdered", func(c *Comm, vals []float64) {
			c.AllreduceOrdered(vals, func(dst, src []float64) { dst[0] += src[0] })
		}},
		{"Allreduce(Sum)", func(c *Comm, vals []float64) { c.Allreduce(Sum, vals) }},
	} {
		for trial := 0; trial < 50; trial++ {
			got := make([]float64, n)
			err := NewWorld(n).Run(func(c *Comm) {
				// Rotate the arrival order across trials; the result must not
				// notice.
				time.Sleep(time.Duration((c.Rank()+trial)%n) * 100 * time.Microsecond)
				vals := []float64{contrib[c.Rank()]}
				tc.reduce(c, vals)
				got[c.Rank()] = vals[0]
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("%s trial %d rank %d: got %x, want %x (fold must be ascending rank order)",
						tc.name, trial, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestAllreduceOrderedCountsCollective checks the call charges the
// allreduce counter like its unordered sibling.
func TestAllreduceOrderedCountsCollective(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		vals := []float64{1}
		c.AllreduceOrdered(vals, func(dst, src []float64) { dst[0] += src[0] })
		if got := c.Stats().Allreduces; got != 1 {
			panic("allreduce counter not charged")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
