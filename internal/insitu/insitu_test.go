package insitu

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
)

// mapBinder serves sources from plain slices, indexed directly.
type mapBinder map[string][]float64

func (mb mapBinder) Source(name string) (Source, error) {
	data, ok := mb[name]
	if !ok {
		return nil, &unknownField{name}
	}
	return func(idx int) float64 { return data[idx] }, nil
}

type unknownField struct{ name string }

func (e *unknownField) Error() string { return "unknown field " + e.name }

// sweep drives every cell through the pipeline's kernels into fresh rows
// split at cut, then merges in order — the tile/merge pattern in miniature.
func sweep(t *testing.T, p *Pipeline, cells int, vol float64, cut int) []float64 {
	t.Helper()
	rows := [][]float64{make([]float64, p.TotalSlots()), make([]float64, p.TotalSlots())}
	for _, row := range rows {
		for _, bo := range p.Ops() {
			bo.Op.Init(row[bo.Off:bo.End])
		}
	}
	for idx := 0; idx < cells; idx++ {
		row := rows[0]
		if idx >= cut {
			row = rows[1]
		}
		for _, bo := range p.Ops() {
			bo.Kern(row[bo.Off:bo.End], idx, vol)
		}
	}
	acc := make([]float64, p.TotalSlots())
	copy(acc, rows[0])
	p.MergeVec(acc, rows[1])
	return acc
}

func TestMomentsOperator(t *testing.T) {
	bnd := mapBinder{
		"T":   {300, 400, 500, 600},
		"rho": {1, 1, 2, 2},
	}
	p := NewPipeline(1)
	if err := p.Register(Moments{Field: "T"}, bnd); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(Moments{Field: "T", Favre: true}, bnd); err != nil {
		t.Fatal(err)
	}
	acc := sweep(t, p, 4, 0.5, 2)
	rec := p.Publish(1, 0.1, acc, nil)

	plain := rec.Products[0]
	if plain.Name != "T" || plain.Op != "moments" {
		t.Fatalf("bad product identity: %+v", plain)
	}
	if got := plain.Scalars["mean"]; math.Abs(got-450) > 1e-12 {
		t.Errorf("mean = %g, want 450", got)
	}
	if plain.Scalars["min"] != 300 || plain.Scalars["max"] != 600 {
		t.Errorf("extrema = [%g, %g], want [300, 600]", plain.Scalars["min"], plain.Scalars["max"])
	}
	if plain.Scalars["cells"] != 4 {
		t.Errorf("cells = %g, want 4", plain.Scalars["cells"])
	}

	favre := rec.Products[1]
	if favre.Name != "T_favre" {
		t.Fatalf("favre name = %q", favre.Name)
	}
	// ρ-weighted mean: (1·300+1·400+2·500+2·600)/(1+1+2+2) = 2900/6.
	if got, want := favre.Scalars["mean"], 2900.0/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("favre mean = %g, want %g", got, want)
	}
}

func TestMomentsMergeMatchesSingleSweep(t *testing.T) {
	vals := []float64{1, 5, 2, 8, 3, 9, 4, 7}
	bnd := mapBinder{"f": vals}
	for _, cut := range []int{0, 3, 8} {
		p := NewPipeline(1)
		if err := p.Register(Moments{Field: "f"}, bnd); err != nil {
			t.Fatal(err)
		}
		acc := sweep(t, p, len(vals), 1, cut)
		pr := p.Ops()[0].Op.Finish(acc)
		if pr.Scalars["min"] != 1 || pr.Scalars["max"] != 9 {
			t.Errorf("cut %d: extrema [%g, %g]", cut, pr.Scalars["min"], pr.Scalars["max"])
		}
		if got, want := pr.Scalars["mean"], 4.875; math.Abs(got-want) > 1e-12 {
			t.Errorf("cut %d: mean %g, want %g", cut, got, want)
		}
	}
}

func TestHistOperator(t *testing.T) {
	bnd := mapBinder{"f": {-10, 0.5, 1.5, 1.5, 99}}
	p := NewPipeline(1)
	if err := p.Register(Hist{Field: "f", Bins: 2, Lo: 0, Hi: 2}, bnd); err != nil {
		t.Fatal(err)
	}
	acc := sweep(t, p, 5, 1, 2)
	pr := p.Ops()[0].Op.Finish(acc)
	// Out-of-range clips to end bins: {-10, 0.5} → bin 0, {1.5, 1.5, 99} → bin 1.
	if pr.Counts[0] != 2 || pr.Counts[1] != 3 {
		t.Fatalf("counts = %v, want [2 3]", pr.Counts)
	}
	if math.Abs(pr.Bins[0]-0.4) > 1e-12 || math.Abs(pr.Bins[1]-0.6) > 1e-12 {
		t.Errorf("probabilities = %v, want [0.4 0.6]", pr.Bins)
	}
}

func TestHistRejectsDegenerateBounds(t *testing.T) {
	p := NewPipeline(1)
	if err := p.Register(Hist{Field: "f", Lo: 1, Hi: 1}, mapBinder{"f": {0}}); err == nil {
		t.Fatal("want error for Hi <= Lo")
	}
}

func TestConditionalOperator(t *testing.T) {
	bnd := mapBinder{
		"T": {100, 200, 300, 400, 999},
		"Z": {0.1, 0.3, 0.6, 1.0, 5.0}, // 1.0 joins the top bin; 5.0 drops
	}
	p := NewPipeline(1)
	if err := p.Register(Conditional{Of: "T", On: "Z", Bins: 2, Lo: 0, Hi: 1}, bnd); err != nil {
		t.Fatal(err)
	}
	acc := sweep(t, p, 5, 1, 3)
	pr := p.Ops()[0].Op.Finish(acc)
	if pr.Counts[0] != 2 || pr.Counts[1] != 2 {
		t.Fatalf("counts = %v, want [2 2]", pr.Counts)
	}
	if got := pr.Bins[0]; math.Abs(got-150) > 1e-12 {
		t.Errorf("bin 0 mean = %g, want 150", got)
	}
	if got := pr.Bins[1]; math.Abs(got-350) > 1e-12 {
		t.Errorf("bin 1 mean = %g, want 350 (Z = 1 must join the closed top bin)", got)
	}
	if pr.Scalars["samples"] != 4 {
		t.Errorf("samples = %g, want 4 (out-of-range conditioning drops)", pr.Scalars["samples"])
	}
}

func TestConditionalEmptyBinsFinite(t *testing.T) {
	p := NewPipeline(1)
	if err := p.Register(Conditional{Of: "T", On: "Z", Bins: 4, Lo: 0, Hi: 1},
		mapBinder{"T": {100}, "Z": {0.1}}); err != nil {
		t.Fatal(err)
	}
	acc := sweep(t, p, 1, 1, 1)
	rec := p.Publish(1, 0, acc, nil)
	for i, m := range rec.Products[0].Bins {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("bin %d mean %v not finite (empty bins must report 0)", i, m)
		}
	}
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("record not JSON-representable: %v", err)
	}
}

func TestGradMagAndVolumeFraction(t *testing.T) {
	bnd := mapBinder{
		"gx": {3, 0},
		"gy": {4, 0},
		"gz": {0, 0},
		"T":  {2000, 300},
	}
	p := NewPipeline(1)
	if err := p.Register(GradMag{Label: "fs", Fields: [3]string{"gx", "gy", "gz"}, Scale: 2}, bnd); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(VolumeFraction{Label: "rz", Field: "T", Threshold: 1500}, bnd); err != nil {
		t.Fatal(err)
	}
	acc := sweep(t, p, 2, 0.5, 1)
	rec := p.Publish(1, 0, acc, nil)
	// ∫ 2·|∇| dV = 2·5·0.5 + 0 = 5.
	if got := rec.Products[0].Scalars["integral"]; math.Abs(got-5) > 1e-12 {
		t.Errorf("gradmag integral = %g, want 5", got)
	}
	if got := rec.Products[1].Scalars["fraction"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("volume fraction = %g, want 0.5", got)
	}
}

func TestPipelineDueAndToggle(t *testing.T) {
	p := NewPipeline(3)
	if p.Due(3) {
		t.Fatal("disabled pipeline must not be due")
	}
	p.Enable()
	for step, want := range map[int]bool{0: false, 1: false, 3: true, 6: true, 7: false} {
		if got := p.Due(step); got != want {
			t.Errorf("Due(%d) = %v, want %v", step, got, want)
		}
	}
}

func TestPipelineSubscribeAndHandler(t *testing.T) {
	bnd := mapBinder{"f": {1, 2}}
	p := NewPipeline(1)
	if err := p.Register(Moments{Field: "f"}, bnd); err != nil {
		t.Fatal(err)
	}
	var got []Record
	p.Subscribe(func(r Record) { got = append(got, r) })

	// Handler before any record serves an empty object.
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis", nil))
	if rr.Body.String() != "{}\n" {
		t.Fatalf("empty handler body = %q", rr.Body.String())
	}

	acc := sweep(t, p, 2, 1, 1)
	p.Publish(7, 0.25, acc, []Product{{Op: "scalar", Name: "heat_release", Scalars: map[string]float64{"watts": 42}}})
	if len(got) != 1 || got[0].Step != 7 {
		t.Fatalf("subscriber got %+v", got)
	}
	if got[0].Products[1].Scalars["watts"] != 42 {
		t.Fatalf("extra product missing: %+v", got[0].Products)
	}

	rr = httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis", nil))
	var rec Record
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Step != 7 || len(rec.Products) != 2 {
		t.Fatalf("handler record = %+v", rec)
	}
}

func TestSanitizeNonFinite(t *testing.T) {
	pr := sanitize(Product{
		Scalars: map[string]float64{"a": math.NaN(), "b": 1},
		Bins:    []float64{math.Inf(1), 2},
	})
	if pr.Scalars["a"] != 0 || pr.Scalars["b"] != 1 || pr.Bins[0] != 0 || pr.Bins[1] != 2 {
		t.Fatalf("sanitize left non-finite values: %+v", pr)
	}
}

// TestStoreRoundtrip: analysis records land in the run trace as payloads of
// their own kind and decode back unchanged, whatever else the trace holds.
func TestStoreRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	recs := []Record{
		{Step: 1, Time: 0.5, Products: []Product{{Op: "moments", Name: "T", Scalars: map[string]float64{"mean": 400}}}},
		{Step: 2, Time: 1.0, Products: []Product{{Op: "hist", Name: "T", Lo: 0, Hi: 1, Bins: []float64{0.5, 0.5}}}},
	}
	for _, r := range recs {
		tr.Layer(obs.KindAnalysis, r)
		tr.Step(obs.StepEvent{Step: r.Step})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	all, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.Payloads[Record](all, obs.KindAnalysis)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || len(got) != 2 || got[0].Step != 1 || got[1].Products[0].Bins[1] != 0.5 {
		t.Fatalf("roundtrip = %+v", got)
	}
}

// TestStoreSinkRetainsFirstError: a record the trace cannot encode or write
// is dropped, and the first such error is kept for Flush.
func TestStoreSinkRetainsFirstError(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	tr.Layer(obs.KindAnalysis, Record{Step: 1, Products: []Product{{Scalars: map[string]float64{"x": math.NaN()}}}})
	if tr.Flush() == nil || buf.Len() != 0 {
		t.Fatalf("an unencodable record: Flush %v, %d bytes written", tr.Flush(), buf.Len())
	}

	closed, err := obs.CreateTrace(filepath.Join(t.TempDir(), "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close() // force the next append to fail
	closed.Layer(obs.KindAnalysis, Record{Step: 1})
	if closed.Flush() == nil {
		t.Fatal("want retained append error after closed file")
	}
}
