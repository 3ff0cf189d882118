package s3d

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"
)

// TestStepEndBits pins what an armed, analysed lifted jet publishes: every
// flight-recorder frame (health sample, check states, temperature slice),
// every analysis record of StandardAnalysis and the "hrr" field after six
// steps with one filter pass (FilterEvery 5), serial and over 2×1×1 ranks,
// at one worker and at three. The hashes were recorded when the health and
// analysis sweeps were two passes, the filter kept a scratch field and
// Field("hrr") ran the chemistry on its own mechanism clone; any change to
// a merge order, a sweep's bits or the filter's arithmetic moves them.
func TestStepEndBits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank reacting case")
	}
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	defer SetWorkers(0) // restore the NumCPU default for other tests
	for _, c := range []struct {
		dims [3]int
		want uint64
	}{
		{[3]int{}, 0xb791b0837b37e83b},
		{[3]int{2, 1, 1}, 0x5f34110d46100f13},
	} {
		for _, workers := range []int{1, 3} {
			SetWorkers(workers)
			var ranks [2][]byte
			runCase(t, p, c.dims, func(sim *Simulation, rank, _ int) {
				w := sim.EnableHealth(HealthOptions{})
				if _, err := sim.EnableAnalysis(p.StandardAnalysis()); err != nil {
					panic(err)
				}
				var recs []AnalysisRecord
				if err := sim.Subscribe(func(r AnalysisRecord) { recs = append(recs, r) }); err != nil {
					panic(err)
				}
				if err := sim.TryAdvance(steps, 0.4*sim.StableDt()); err != nil {
					panic(err)
				}
				hrr, _, err := sim.Field("hrr")
				if err != nil {
					panic(err)
				}
				out, err := json.Marshal(struct {
					Frames  any
					Records []AnalysisRecord
				}{w.Recorder().Frames(), recs})
				if err != nil {
					panic(err)
				}
				if len(recs) != steps {
					panic("want one analysis record per step")
				}
				for _, v := range hrr {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
				}
				ranks[rank] = out
			})
			h := fnv.New64a()
			for _, r := range ranks {
				h.Write(r)
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("ranks %v workers %d: step-end hash %#016x, recorded %#016x", c.dims, workers, got, c.want)
			}
		}
	}
}
