package solver

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/transport"
)

// newReactiveSerial builds a serial block on the reactive periodic case.
func newReactiveSerial(t *testing.T) *Block {
	t.Helper()
	b, err := NewSerial(reactiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	hotSpotIC(b)
	return b
}

// mustViolation recovers a panic and asserts it carries a *health.Violation.
func mustViolation(t *testing.T, fn func()) *health.Violation {
	t.Helper()
	var v *health.Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a panic")
			}
			var ok bool
			if v, ok = r.(*health.Violation); !ok {
				t.Fatalf("panic value is %T (%v), want *health.Violation", r, r)
			}
		}()
		fn()
	}()
	return v
}

// TestPrimitivesPanicWithoutWatchdog pins the historical contract: with no
// armed watchdog an unrecoverable state still panics — but now with a
// structured violation naming the cell, raised by the owner after the tile
// barrier rather than inside a pool worker.
func TestPrimitivesPanicWithoutWatchdog(t *testing.T) {
	t.Run("density", func(t *testing.T) {
		b := newReactiveSerial(t)
		b.Q[iRho].Set(3, 2, 1, -1.0)
		v := mustViolation(t, func() { b.RefreshPrimitives() })
		if v.Check != "density" || v.Cell != [3]int{3, 2, 1} || v.Quantity != "rho" {
			t.Fatalf("violation = %+v", v)
		}
	})
	t.Run("temperature_inversion", func(t *testing.T) {
		b := newReactiveSerial(t)
		b.Q[iRhoE].Set(5, 4, 3, math.NaN())
		v := mustViolation(t, func() { b.RefreshPrimitives() })
		if v.Check != "temperature_inversion" || v.Cell != [3]int{5, 4, 3} {
			t.Fatalf("violation = %+v", v)
		}
	})
	t.Run("ghost_slab_row", func(t *testing.T) {
		// A row of the ghost slab below j = 0 keeps only its interior i
		// range; a fault in it names the ghost point's own i (not one
		// shifted by the clipped ghost width) and its periodic image's j.
		// The halos are filled first and the sweep then runs alone, so no
		// exchange overwrites the ghost.
		b := newReactiveSerial(t)
		b.RefreshPrimitives()
		b.Q[iRho].Set(3, -2, 1, -1.0)
		v := mustViolation(t, b.computePrimitives)
		if v.Check != "density" || v.Cell != [3]int{3, b.G.Ny - 2, 1} {
			t.Fatalf("violation = %+v", v)
		}
	})
	t.Run("step_once", func(t *testing.T) {
		b := newReactiveSerial(t)
		b.InjectNaNAt(1, 8, 6, 4)
		v := mustViolation(t, func() { b.Advance(2, 2e-8) })
		if v.Check != "temperature_inversion" || v.Cell != [3]int{8, 6, 4} || v.Step != 1 {
			t.Fatalf("violation = %+v", v)
		}
	})
}

// TestPrimitivesFaultKeepsCell pins what the row sweep does around a fault
// under an armed watchdog (no panic; the fault waits for the end of the
// step): the faulted cell's ρ, T, p and Y keep their pre-refresh bits, and
// its row neighbours i±1 are refreshed to the bits a fault-free twin's
// sweep writes there. The neighbours' T is left as it was, since it seeds
// their Newton iteration. The halos are filled before the fault is placed
// and the sweep then runs alone, so the interior row is the only one to
// fault and the fault names its point.
func TestPrimitivesFaultKeepsCell(t *testing.T) {
	const i, j, k = 8, 6, 4
	const poison = -123.25
	prims := func(b *Block, withT bool) []*grid.Field3 {
		f := append([]*grid.Field3{b.Rho, b.P}, b.Y...)
		if withT {
			f = append(f, b.T)
		}
		return f
	}
	for _, tc := range []struct {
		check string
		q     int
		value float64
	}{
		{"density", iRho, -1},
		{"temperature_inversion", iRhoE, math.NaN()},
	} {
		t.Run(tc.check, func(t *testing.T) {
			ref := newReactiveSerial(t)
			ref.RefreshPrimitives()
			ref.computePrimitives()

			b := newReactiveSerial(t)
			w := health.New(health.Defaults())
			b.InstallWatchdog(w)
			w.Arm()
			b.RefreshPrimitives()
			b.Q[tc.q].Set(i, j, k, tc.value)
			for _, f := range prims(b, true) {
				f.Set(i, j, k, poison)
			}
			for _, f := range prims(b, false) {
				f.Set(i-1, j, k, poison)
				f.Set(i+1, j, k, poison)
			}
			b.computePrimitives()

			if v := b.fault; v == nil || v.Check != tc.check || v.Cell != [3]int{i, j, k} {
				t.Fatalf("fault = %+v", v)
			}
			for n, f := range prims(b, true) {
				if got := f.At(i, j, k); math.Float64bits(got) != math.Float64bits(poison) {
					t.Fatalf("primitive %d of the faulted cell = %v, want its old %v", n, got, poison)
				}
			}
			want := prims(ref, true)
			for n, f := range prims(b, true) {
				for _, ii := range []int{i - 1, i + 1} {
					if got, w := f.At(ii, j, k), want[n].At(ii, j, k); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("primitive %d at i=%d = %v, a fault-free sweep writes %v", n, ii, got, w)
					}
				}
			}
		})
	}
}

// TestStepCheckedSerialTrip drives the armed serial path: healthy steps
// return nil (a true untyped nil, not a typed-nil error), the injected NaN
// turns into a returned violation at the right step, and the flight
// recorder holds every step up to the trip.
func TestStepCheckedSerialTrip(t *testing.T) {
	b := newReactiveSerial(t)
	w := health.New(health.Defaults())
	b.InstallWatchdog(w)
	w.Arm()
	b.InjectNaNAt(3, 8, 6, 4)

	var tripErr error
	for i := 0; i < 6; i++ {
		err := b.StepChecked(2e-8)
		if err != nil {
			tripErr = err
			break
		}
		if b.Step >= 3 {
			t.Fatalf("step %d completed without tripping", b.Step)
		}
	}
	if tripErr == nil {
		t.Fatal("injected NaN never tripped")
	}
	v, ok := tripErr.(*health.Violation)
	if !ok {
		t.Fatalf("error is %T, want *health.Violation", tripErr)
	}
	if v.Check != "temperature_inversion" || v.Rank != 0 || v.Step != 3 || v.Cell != [3]int{8, 6, 4} {
		t.Fatalf("violation = %+v", v)
	}
	if st := w.Status(); st.Level != "fatal" || st.Violation == nil {
		t.Fatalf("watchdog status = %+v", st)
	}
	if got := len(w.Recorder().Frames()); got != 3 {
		t.Fatalf("flight recorder holds %d frames, want 3", got)
	}
	frames := w.Recorder().Frames()
	last := frames[len(frames)-1]
	if last.Step != 3 || last.Level != "fatal" {
		t.Fatalf("last frame = step %d level %q", last.Step, last.Level)
	}
	if last.Slice == nil || last.Slice.Nx == 0 || len(last.Slice.Data) != last.Slice.Nx*last.Slice.Ny {
		t.Fatalf("last frame slice = %+v", last.Slice)
	}
	// The sample that tripped carries the NaN census of the conserved state.
	if last.Sample.NaNCount == 0 || last.Sample.NaNQuantity != "rhoE" {
		t.Fatalf("fatal sample NaN census = %+v", last.Sample)
	}
}

// TestStepCheckedHealthySteps verifies an armed watchdog on a healthy run
// stays quiet and records a frame per step with finite diagnostics.
func TestStepCheckedHealthySteps(t *testing.T) {
	b := newReactiveSerial(t)
	w := health.New(health.Defaults())
	b.InstallWatchdog(w)
	w.Arm()
	for i := 0; i < 4; i++ {
		if err := b.StepChecked(2e-8); err != nil {
			t.Fatalf("healthy step %d tripped: %v", i+1, err)
		}
	}
	if st := w.Status(); st.Level != "ok" || st.Step != 4 {
		t.Fatalf("status = %+v", st)
	}
	fr := w.Recorder().Frames()
	if len(fr) != 4 {
		t.Fatalf("recorded %d frames, want 4", len(fr))
	}
	s := fr[3].Sample
	if !(s.RhoMin.V > 0) || !(s.TMax.V >= s.TMin.V) || !(s.Mass > 0) {
		t.Fatalf("diagnostics not sane: %+v", s)
	}
	if !(s.CFLAcoustic.V > 0) || !(s.CFLDiffusive.V > 0) {
		t.Fatalf("CFL estimates missing: %+v", s)
	}
	if math.IsNaN(float64(s.Energy)) || s.NaNCount != 0 {
		t.Fatalf("NaN census wrong on healthy run: %+v", s)
	}
}

// TestStepCheckedDiffusionNumber pins the watchdog's diffusion number to the
// final RK stage's transport: at the reported cell it equals
// 2·nd·dt·max(μ/ρ, maxₙ Dₙ)/h² recomputed from a transport model of the
// test's own at that cell's final-stage primitives, and it is the largest
// such number over the interior. The mixture-averaged case is led by D_H2;
// under the constant-Lewis ablation at Le = 2 the viscous term μ/ρ leads.
func TestStepCheckedDiffusionNumber(t *testing.T) {
	for _, le := range []float64{0, 2} {
		cfg := reactiveConfig()
		cfg.ConstLewis = le
		b, err := NewSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hotSpotIC(b)
		w := health.New(health.Defaults())
		b.InstallWatchdog(w)
		w.Arm()
		const dt = 2e-8
		for i := 0; i < 2; i++ {
			if err := b.StepChecked(dt); err != nil {
				t.Fatalf("Le=%g: healthy step tripped: %v", le, err)
			}
		}
		fr := w.Recorder().Frames()
		got := fr[len(fr)-1].Sample.CFLDiffusive

		tr := transport.MustNew(cfg.Mech.Set)
		props := transport.Props{Dmix: make([]float64, b.ns)}
		y := make([]float64, b.ns)
		h := cfg.Grid.MinSpacing()
		// number returns the diffusion number at (i, j, k) and whether μ/ρ
		// is its largest diffusivity.
		number := func(i, j, k int) (float64, bool) {
			x := b.Rho.Idx(i, j, k)
			for n := range y {
				y[n] = b.Y[n].Data[x]
			}
			T, rho := b.T.Data[x], b.Rho.Data[x]
			tr.Mixture(T, b.P.Data[x], y, &props)
			diff := props.Dmix
			if le > 0 { // one D for every species
				diff = []float64{props.Lambda / (rho * b.mech.Set.CpMass(T, y) * le)}
			}
			nu := props.Mu / rho
			d := nu
			for _, dn := range diff {
				if dn > d {
					d = dn
				}
			}
			return 2 * float64(len(b.active)) * dt * d / (h * h), d == nu
		}
		c := got.Cell
		want, viscous := number(c[0], c[1], c[2])
		if float64(got.V) != want {
			t.Fatalf("Le=%g: diffusion number %v at %v, final-stage transport gives %v", le, got.V, c, want)
		}
		if viscous != (le > 0) {
			t.Fatalf("Le=%g: μ/ρ leads at %v: %v", le, c, viscous)
		}
		for k := 0; k < b.G.Nz; k++ {
			for j := 0; j < b.G.Ny; j++ {
				for i := 0; i < b.G.Nx; i++ {
					if v, _ := number(i, j, k); v > want {
						t.Fatalf("Le=%g: diffusion number %v at (%d,%d,%d) exceeds the reported %v at %v",
							le, v, i, j, k, want, c)
					}
				}
			}
		}
	}
}

// TestCrossRankAbort is the decomposed abort gate: one rank trips FATAL on
// an injected NaN and every rank returns a structured violation from the
// same step — the faulting rank naming the cell, the neighbour naming the
// culprit rank — with no goroutine left behind.
func TestCrossRankAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank reacting case")
	}
	base := runtime.NumGoroutine()

	// Slabs wide enough that the injected NaN — which spreads ±4 cells per
	// RK stage through the (ρE+p)u flux — cannot reach the neighbour's
	// halo layers within the step that trips, so the neighbour's violation
	// exercises the remote-abort path rather than a local fault.
	pool := par.NewPool(4)
	mech := chem.H2Air()
	cfg := &Config{
		Mech:        mech,
		Trans:       transport.MustNew(mech.Set),
		Grid:        grid.New(grid.Spec{Nx: 112, Ny: 12, Nz: 8, Lx: 0.028, Ly: 0.003, Lz: 0.002}),
		PInf:        101325,
		FilterEvery: 4,
		Pool:        pool,
	}
	type rankResult struct {
		rank, step int
		v          *health.Violation
	}
	results := make(chan rankResult, 2)
	err := RunParallel(cfg, [3]int{2, 1, 1}, func(b *Block) {
		w := health.New(health.Defaults())
		b.InstallWatchdog(w)
		hotSpotIC(b)
		w.Arm()
		if b.Rank() == 1 {
			// Centre of rank 1's 56-wide slab, injected on a non-filter
			// step so the trip is clean.
			b.InjectNaNAt(2, 28, 6, 4)
		}
		res := rankResult{rank: b.Rank()}
		for i := 0; i < 6; i++ {
			if err := b.StepChecked(2e-8); err != nil {
				res.v = err.(*health.Violation)
				break
			}
		}
		res.step = b.Step
		results <- res
	})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]rankResult{}
	for i := 0; i < 2; i++ {
		r := <-results
		got[r.rank] = r
	}

	for rank, r := range got {
		if r.v == nil {
			t.Fatalf("rank %d never tripped (stopped at step %d)", rank, r.step)
		}
		if r.step != 2 || r.v.Step != 2 {
			t.Fatalf("rank %d tripped at step %d (violation step %d), want 2", rank, r.step, r.v.Step)
		}
	}
	faulter := got[1].v
	if faulter.Check != "temperature_inversion" || faulter.Rank != 1 {
		t.Fatalf("faulting rank violation = %+v", faulter)
	}
	// Global cell: rank 1 owns x ∈ [56, 112).
	if faulter.Cell != [3]int{56 + 28, 6, 4} {
		t.Fatalf("faulting cell = %v, want global (84,6,4)", faulter.Cell)
	}
	remote := got[0].v
	if remote.Check != "remote" || remote.Rank != 1 {
		t.Fatalf("neighbour violation = %+v, want remote blame on rank 1", remote)
	}

	// Every rank goroutine and pool worker must be gone.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutine leak after abort: %d running, baseline %d", g, base)
	}
}
