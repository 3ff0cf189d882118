package s3d

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

func inventorySim(t *testing.T) *Simulation {
	t.Helper()
	sim, err := New(Config{
		Mechanism:    HydrogenAir(),
		Grid:         GridSpec{Nx: 16, Ny: 12, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestFieldsInventory checks the public registry view: the inventory
// carries the metadata the registry recorded, the derived entries Field
// accepts, and the role-selected analysis set.
func TestFieldsInventory(t *testing.T) {
	sim := inventorySim(t)
	byName := map[string]FieldInfo{}
	for _, fi := range sim.Fields() {
		if _, dup := byName[fi.Name]; dup {
			t.Fatalf("duplicate inventory name %q", fi.Name)
		}
		byName[fi.Name] = fi
	}
	for name, want := range map[string]FieldInfo{
		"rho":    {Name: "rho", Role: "primitive", Width: 8},
		"p":      {Name: "p", Role: "primitive", Width: 8},
		"u":      {Name: "u", Role: "primitive", HaloGroup: "primitive", Width: 8},
		"T":      {Name: "T", Role: "primitive", HaloGroup: "primitive", Checkpoint: "T_guess", Width: 8},
		"Y_OH":   {Name: "Y_OH", Role: "primitive", Species: "OH", HaloGroup: "primitive", Width: 8},
		"Q_rhoE": {Name: "Q_rhoE", Role: "conserved", HaloGroup: "conserved", Checkpoint: "rhoE", Width: 8},
		"hrr":    {Name: "hrr", Role: "derived", Derived: true},
	} {
		got, ok := byName[name]
		if !ok {
			t.Fatalf("inventory is missing %q", name)
		}
		if got != want {
			t.Fatalf("inventory[%q] = %+v, want %+v", name, got, want)
		}
	}
	// Every non-derived inventory name must resolve through Field.
	for _, fi := range sim.Fields() {
		if _, _, err := sim.Field(fi.Name); err != nil {
			t.Fatalf("inventory name %q does not resolve: %v", fi.Name, err)
		}
	}
	if _, _, err := sim.Field("no_such_field"); err == nil {
		t.Fatal("unknown name resolved")
	}

	want := []string{"rho", "u", "v", "w", "T", "p", "Wmix"}
	if got := sim.AnalysisFields(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalysisFields() = %v, want %v", got, want)
	}
}

// TestFieldsEndpoint serves /fields on a live monitor and decodes it.
func TestFieldsEndpoint(t *testing.T) {
	sim := inventorySim(t)
	probe, err := sim.StartTelemetry(TelemetryOptions{MonitorAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close("")
	resp, err := http.Get("http://" + probe.MonitorAddr() + "/fields")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fields: %s", resp.Status)
	}
	var doc FieldsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Grid != [3]int{16, 12, 1} {
		t.Fatalf("document grid %v", doc.Grid)
	}
	if doc.Count != len(doc.Fields) || doc.Count == 0 {
		t.Fatalf("document count %d, %d fields", doc.Count, len(doc.Fields))
	}
	if doc.Fields[0].Name != "Q_rho" || doc.Fields[0].Checkpoint != "rho" {
		t.Fatalf("first entry %+v: registration order must lead with the conserved bank", doc.Fields[0])
	}
}

// TestFieldRowsStreaming checks that the streaming row source delivers
// exactly the values Field materialises, in the same order.
func TestFieldRowsStreaming(t *testing.T) {
	sim := inventorySim(t)
	sim.SetInitial(func(x, y, z float64, s *State) {
		s.T = 300 + 1e4*x + 1e3*y
		s.Y[sim.mech.SpeciesIndex("N2")] = 1
	}, nil)
	want, dims, err := sim.Field("T")
	if err != nil {
		t.Fatal(err)
	}
	rows, rdims, err := sim.FieldRows("T")
	if err != nil {
		t.Fatal(err)
	}
	if rdims != dims {
		t.Fatalf("dims %v vs %v", rdims, dims)
	}
	var got []float64
	if err := rows(func(chunk []float64) error {
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed rows differ from materialised field")
	}
	if _, _, err := sim.FieldRows("hrr"); err == nil {
		t.Fatal("derived field must not stream")
	}
}
