package s3d

// Field inventory: the public face of the solver's field registry. Every
// array the solver allocates — conserved registers, primitives, fluxes,
// the watchdog's diffusivity, scratch — is registered once with stable
// metadata (grid.FieldSet), and this file exposes that single source of
// truth: Fields for programmatic use, and the /fields endpoint the
// telemetry monitor serves for run-time inspection, so viz pickers,
// checkpoint tooling and dashboards all agree on what exists and what it
// is called.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/sdf"
)

// FieldInfo describes one registered solver field.
type FieldInfo struct {
	// Name is the stable registry name ("rho", "T", "Y_OH", "Q_rhoE", …)
	// accepted by Field, viz field pickers and the in-situ observers.
	Name string `json:"name"`
	// Role classifies the field: conserved, register, primitive,
	// transport, gradient, flux, scratch, cost — or derived for on-demand
	// diagnostics that have no backing storage.
	Role string `json:"role"`
	// Species is the species name for per-species fields, "" otherwise.
	Species string `json:"species,omitempty"`
	// HaloGroup names the ghost-exchange group the field belongs to
	// ("conserved" or "flux"), "" if it is never exchanged.
	HaloGroup string `json:"halo_group,omitempty"`
	// Checkpoint is the on-disk restart-file variable name, "" if the
	// field is not checkpointed.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Width is the storage width in bytes (8; 0 for derived fields).
	Width int `json:"width,omitempty"`
	// Derived marks diagnostics computed on demand (e.g. "hrr") rather
	// than resolved from registry storage.
	Derived bool `json:"derived,omitempty"`
}

// Fields returns the simulation's field inventory in registration order —
// the same order that fixes the arena layout, the halo pack order and the
// checkpoint variable sequence — followed by the derived diagnostics
// Field accepts ("hrr"). Metadata is immutable after construction, so the
// result is safe to read concurrently with a running simulation.
func (s *Simulation) Fields() []FieldInfo {
	fs := s.blk.Fields()
	names := s.mech.Species()
	out := make([]FieldInfo, 0, fs.Len()+1)
	for id := 0; id < fs.Len(); id++ {
		m := fs.Meta(id)
		fi := FieldInfo{
			Name:       m.Name,
			Role:       m.Role.String(),
			HaloGroup:  m.Group,
			Checkpoint: m.Ckpt,
			Width:      8, // float64
		}
		if m.Species >= 0 && m.Species < len(names) {
			fi.Species = names[m.Species]
		}
		out = append(out, fi)
	}
	out = append(out, FieldInfo{Name: "hrr", Role: "derived", Derived: true})
	return out
}

// FieldsDocument is the JSON document served at /fields by the telemetry
// monitor and written as fields.json by the workflow production driver.
type FieldsDocument struct {
	Grid [3]int `json:"grid"`
	// Ghost is the nominal ghost width; GhostAxes is what each axis carries
	// (0 along an axis of one point, see grid.AxisGhost). Every stored field
	// holds Π (Grid[a] + 2·GhostAxes[a]) values of Width bytes.
	Ghost     int         `json:"ghost"`
	GhostAxes [3]int      `json:"ghost_axes"`
	Count     int         `json:"count"`
	Fields    []FieldInfo `json:"fields"`
}

// FieldsDocument assembles the full inventory document.
func (s *Simulation) FieldsDocument() FieldsDocument {
	nx, ny, nz := s.Dims()
	fields := s.Fields()
	return FieldsDocument{
		Grid:      [3]int{nx, ny, nz},
		Ghost:     grid.Ghost,
		GhostAxes: s.blk.Fields().Ghosts(),
		Count:     len(fields),
		Fields:    fields,
	}
}

// FieldRows resolves a registered field and returns a streaming row source
// over its interior (contiguous per-row arena views, k-then-j order) for
// sdf.AddVarFunc write paths: each value is copied exactly once, arena
// view → encoder buffer.
func (s *Simulation) FieldRows(name string) (sdf.RowSource, [3]int, error) {
	nx, ny, nz := s.Dims()
	dims := [3]int{nx, ny, nz}
	f := s.blk.FieldByName(name)
	if f == nil {
		return nil, dims, fmt.Errorf("s3d: unknown field %q", name)
	}
	return func(emit func(chunk []float64) error) error {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				if err := emit(f.Row(j, k)); err != nil {
					return err
				}
			}
		}
		return nil
	}, dims, nil
}

// AnalysisFields returns the registry's bulk primitive scalars (rho, u, v,
// w, T, p, Wmix) in registration order — the derived-field set the
// workflow's analysis files carry, selected by role rather than by a
// hard-coded name list.
func (s *Simulation) AnalysisFields() []string {
	var out []string
	for _, fi := range s.Fields() {
		if fi.Role == "primitive" && fi.Species == "" {
			out = append(out, fi.Name)
		}
	}
	return out
}

// fieldsHandler serves the inventory document as JSON (mounted at /fields
// on the telemetry monitor alongside /metrics and /health).
func (s *Simulation) fieldsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.FieldsDocument())
	})
}
