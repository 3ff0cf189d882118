package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/par"
)

// acousticDtLoop is AcousticDt as the point-by-point loop over the interior
// that the tiled row sweep replaced: the oracle of TestAcousticDtMatchesLoop.
func acousticDtLoop(b *Block) float64 {
	h := b.G.MinSpacing()
	maxSpeed := 0.0
	set := b.mech.Set
	yw := make([]float64, b.ns)
	for k := 0; k < b.G.Nz; k++ {
		for j := 0; j < b.G.Ny; j++ {
			for i := 0; i < b.G.Nx; i++ {
				b.gatherYInto(yw, i, j, k)
				c := set.SoundSpeed(b.T.At(i, j, k), yw)
				s := math.Abs(b.U.At(i, j, k)) + math.Abs(b.V.At(i, j, k)) + math.Abs(b.W.At(i, j, k)) + c
				if s > maxSpeed {
					maxSpeed = s
				}
			}
		}
	}
	if maxSpeed == 0 {
		return math.Inf(1)
	}
	return b.CFL() * h / maxSpeed
}

// TestAcousticDtMatchesLoop holds the tiled AcousticDt bit for bit against
// the point-by-point loop on the hot-spot state, with a NaN temperature
// planted (its speed must be passed over, as the loop's s > max passes it)
// and the fastest point in the last tile, serially at one and at three
// pool workers and on each rank of a 2×1×1 run.
func TestAcousticDtMatchesLoop(t *testing.T) {
	prepare := func(b *Block) {
		hotSpotIC(b)
		b.RefreshPrimitives()
		b.T.Set(1, 2, 3, math.NaN())
		b.U.Set(b.G.Nx-1, b.G.Ny-1, b.G.Nz-1, 400)
	}
	check := func(b *Block) error {
		got, want := b.AcousticDt(), acousticDtLoop(b)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("rank %d at %d workers: AcousticDt = %v, the point loop gives %v",
				b.Rank(), b.plan.Workers(), got, want)
		}
		return nil
	}
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		cfg := reactiveConfig()
		cfg.Pool = pool
		b, err := NewSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prepare(b)
		err = check(b)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var errs []error
	err := RunParallel(reactiveConfig(), [3]int{2, 1, 1}, func(b *Block) {
		prepare(b)
		if err := check(b); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}
}
