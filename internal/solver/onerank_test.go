package solver

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/prof"
)

// armAll turns on every instrumentation layer a block carries — profiling,
// the watchdog, analysis, cost maps, the critpath analyzer and telemetry —
// at cadence one, and returns the analysis pipeline (its records do not
// depend on wall time) and the cost collector.
func armAll(t *testing.T, b *Block) (*insitu.Pipeline, *cost.Collector) {
	t.Helper()
	b.EnableProfiling(prof.New().NewTrack(prof.GroupRank, "rank0"))
	w := health.New(health.Defaults())
	b.InstallWatchdog(w)
	w.Arm()
	p := insitu.NewPipeline(1)
	p.SetHeatRelease(true)
	for _, op := range []insitu.Operator{
		insitu.Moments{Field: "T", Favre: true},
		insitu.Hist{Field: "T", Bins: 8, Lo: 600, Hi: 1400},
	} {
		if err := p.Register(op, b.NewBinder()); err != nil {
			t.Fatal(err)
		}
	}
	b.InstallAnalysis(p)
	p.Enable()
	c := cost.NewCollector(1)
	b.InstallCost(c)
	c.Enable()
	a := critpath.New(1)
	if err := b.InstallCritPath(a); err != nil {
		t.Fatal(err)
	}
	a.Enable()
	b.EnableTelemetry()
	return p, c
}

// TestSerialIsOneRankRun: NewSerial's block is rank 0 of a one-rank topology
// on the caller's goroutine, RunParallel's 1×1×1 block the same rank under
// World.Run. The two must end on byte-identical checkpoints — and, armed,
// on identical analysis records and a cost record of the same step — on a
// periodic box (every halo a self-neighbour wrap), the NSCBC jet (no
// neighbour at all in the plane) and a line along z (two axes without
// ghosts), un-armed and with every layer armed (an armed step runs the
// end-of-step fold and the critpath deposit on the one rank).
func TestSerialIsOneRankRun(t *testing.T) {
	type setup struct {
		name   string
		config func(*par.Pool) *Config
		ic     func(*Block)
	}
	cases := []setup{{
		name:   "periodic box",
		config: func(pool *par.Pool) *Config { c := reactiveConfig(); c.Pool = pool; return c },
		ic:     hotSpotIC,
	}}
	for _, c := range []degenerateCase{degenerateCases[0], degenerateCases[2]} {
		cases = append(cases, setup{name: c.name, config: c.config, ic: degenerateIC})
	}
	for _, c := range cases {
		for _, armed := range []bool{false, true} {
			pool := par.NewPool(2)
			// advance returns the final checkpoint followed, when armed, by the
			// last analysis record and the last cost record's step (a cost
			// record is wall-clock).
			advance := func(b *Block) []byte {
				c.ic(b)
				var p *insitu.Pipeline
				var cc *cost.Collector
				if armed {
					p, cc = armAll(t, b)
				}
				for i := 0; i < degSteps; i++ {
					if err := b.StepChecked(degDt); err != nil {
						t.Fatalf("%s armed=%v step %d: %v", c.name, armed, i+1, err)
					}
				}
				var out bytes.Buffer
				if err := b.SaveCheckpoint(&out); err != nil {
					t.Fatal(err)
				}
				if armed {
					if err := json.NewEncoder(&out).Encode([]any{p.Latest(), cc.Latest().Step}); err != nil {
						t.Fatal(err)
					}
				}
				return out.Bytes()
			}
			b, err := NewSerial(c.config(pool))
			if err != nil {
				t.Fatal(err)
			}
			serial := advance(b)
			var oneRank []byte
			if err := RunParallel(c.config(pool), [3]int{1, 1, 1}, func(b *Block) { oneRank = advance(b) }); err != nil {
				t.Fatal(err)
			}
			pool.Close()
			if !bytes.Equal(serial, oneRank) {
				t.Errorf("%s armed=%v: NewSerial and RunParallel 1x1x1 end on different bytes (%d vs %d)",
					c.name, armed, len(serial), len(oneRank))
			}
		}
	}
}
