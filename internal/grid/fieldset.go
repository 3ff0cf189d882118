package grid

import "fmt"

// FieldSet is a registry-plus-arena owning every field of a solver block.
// S3D's Fortran core keeps all solution registers in a handful of contiguous
// arrays with a fixed variable ordering (paper §2, §4), which is what makes
// its halo packing, RK 2N register updates and restart I/O cheap and uniform.
// FieldSet recovers that property: each field is registered exactly once with
// metadata (stable name, role, species index, halo-exchange group, checkpoint
// inclusion), and Build carves every Field3's backing storage out of one
// contiguous arena in registration order. Fields registered consecutively
// therefore occupy consecutive arena runs — a bank — and bank-wide operations
// (the RK register update, conservation sums) become single stride-1 loops
// over Span instead of per-field calls.
//
// Registration order is ABI: it fixes the arena layout, the halo-group pack
// order and the checkpoint variable order. Consumers resolve fields by name
// or group; nothing outside the registry re-derives field identity.
type FieldSet struct {
	nx, ny, nz, ghost int
	lay               layout // shared by every field; lay.size arena values per field

	metas  []FieldMeta
	fields []*Field3
	byName map[string]int
	groups map[string][]int // halo group → ids in registration order

	arena []float64 // non-nil once Build has run
	built bool
}

// Role classifies a registered field.
type Role int

const (
	// RoleConserved marks a conserved-variable register (a Q component).
	RoleConserved Role = iota
	// RoleRegister marks an RK integration register (dQ, rhs).
	RoleRegister
	// RolePrimitive marks a primitive decoded from the conserved state.
	RolePrimitive
	// RoleTransport marks a field derived from transport coefficients (the
	// solver's one is diff_max, max(μ/ρ, maxₙ Dₙ)).
	RoleTransport
	// RoleGradient marks a stored spatial derivative.
	RoleGradient
	// RoleFlux marks an assembled flux component.
	RoleFlux
	// RoleScratch marks reusable working storage.
	RoleScratch
)

// String returns the role's stable lower-case name (used in /fields JSON).
func (r Role) String() string {
	switch r {
	case RoleConserved:
		return "conserved"
	case RoleRegister:
		return "register"
	case RolePrimitive:
		return "primitive"
	case RoleTransport:
		return "transport"
	case RoleGradient:
		return "gradient"
	case RoleFlux:
		return "flux"
	case RoleScratch:
		return "scratch"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// FieldMeta describes one registered field.
type FieldMeta struct {
	// Name is the stable registry name; unique within the set. Viz, in-situ
	// extraction and the /fields endpoint resolve fields by this name.
	Name string
	// Role classifies the field.
	Role Role
	// Species is the species index for per-species fields, -1 otherwise.
	Species int
	// Group is the halo-exchange group ("" when the field is never
	// exchanged). Group order is registration order.
	Group string
	// Ckpt is the on-disk checkpoint variable name ("" when the field is
	// not checkpointed). Checkpoint order is registration order.
	Ckpt string
}

// NewFieldSet creates an empty registry for blocks of the given interior
// extents and nominal ghost width (AxisGhost gives each axis its own).
func NewFieldSet(nx, ny, nz, ghost int) *FieldSet {
	return &FieldSet{
		nx: nx, ny: ny, nz: nz, ghost: ghost,
		lay:    newLayout(nx, ny, nz, ghost),
		byName: map[string]int{},
		groups: map[string][]int{},
	}
}

// Register records one field and returns its id. Ids are dense and assigned
// in call order; consecutive registrations share a contiguous arena run.
// Register panics on a duplicate name or after Build.
func (s *FieldSet) Register(m FieldMeta) int {
	if s.built {
		panic("grid: FieldSet.Register after Build")
	}
	if m.Name == "" {
		panic("grid: FieldSet.Register with empty name")
	}
	if _, dup := s.byName[m.Name]; dup {
		panic("grid: FieldSet duplicate field name " + m.Name)
	}
	id := len(s.metas)
	s.byName[m.Name] = id
	s.metas = append(s.metas, m)
	if m.Group != "" {
		s.groups[m.Group] = append(s.groups[m.Group], id)
	}
	return id
}

// Build allocates the arena and carves one zeroed Field3 per registered
// field, in registration order. Each Field3's backing slice is a length- and
// capacity-limited view of the arena, so per-field operations cannot overrun
// into a neighbour while bank operations over Span see the underlying
// contiguous run.
func (s *FieldSet) Build() {
	if s.built {
		panic("grid: FieldSet.Build called twice")
	}
	per := s.lay.size
	s.arena = make([]float64, per*len(s.metas))
	s.fields = make([]*Field3, len(s.metas))
	for id := range s.metas {
		lo := id * per
		s.fields[id] = &Field3{Nx: s.nx, Ny: s.ny, Nz: s.nz, G: s.ghost, layout: s.lay,
			Data: s.arena[lo : lo+per : lo+per]}
	}
	s.built = true
}

// Len returns the number of registered fields.
func (s *FieldSet) Len() int { return len(s.metas) }

// FieldLen returns the arena values per field (full storage incl. ghosts).
func (s *FieldSet) FieldLen() int { return s.lay.size }

// Ghosts returns the ghost-layer width of the set's fields along each axis.
func (s *FieldSet) Ghosts() [3]int { return s.lay.ghosts }

// Field returns the field with the given id. Valid after Build.
func (s *FieldSet) Field(id int) *Field3 {
	s.mustBuilt()
	return s.fields[id]
}

// Meta returns the metadata of the field with the given id.
func (s *FieldSet) Meta(id int) FieldMeta { return s.metas[id] }

// ID returns the id of the named field, or -1 when absent.
func (s *FieldSet) ID(name string) int {
	if id, ok := s.byName[name]; ok {
		return id
	}
	return -1
}

// ByName returns the named field, or nil when absent. Valid after Build.
func (s *FieldSet) ByName(name string) *Field3 {
	s.mustBuilt()
	if id, ok := s.byName[name]; ok {
		return s.fields[id]
	}
	return nil
}

// Group returns the fields of a halo-exchange group in registration order.
// The returned slice is freshly allocated; hoist it, don't rebuild per step.
func (s *FieldSet) Group(name string) []*Field3 {
	s.mustBuilt()
	ids := s.groups[name]
	out := make([]*Field3, len(ids))
	for i, id := range ids {
		out[i] = s.fields[id]
	}
	return out
}

// Span returns the contiguous arena run backing count consecutively
// registered fields starting at firstID — a bank. Bank-wide stride-1 loops
// over the span are bitwise-equivalent to per-field full-storage loops in
// registration order.
func (s *FieldSet) Span(firstID, count int) []float64 {
	s.mustBuilt()
	if firstID < 0 || count < 0 || firstID+count > len(s.metas) {
		panic(fmt.Sprintf("grid: FieldSet.Span(%d,%d) outside %d fields", firstID, count, len(s.metas)))
	}
	if count == 0 {
		return nil
	}
	lo := firstID * s.lay.size
	hi := lo + count*s.lay.size
	return s.arena[lo:hi:hi]
}

// Checkpointed returns the ids of checkpoint-included fields (Ckpt != "")
// in registration order — the on-disk variable order.
func (s *FieldSet) Checkpointed() []int {
	var ids []int
	for id, m := range s.metas {
		if m.Ckpt != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

func (s *FieldSet) mustBuilt() {
	if !s.built {
		panic("grid: FieldSet used before Build")
	}
}

// Scratch allocates one standalone named scratch field through the registry
// machinery. It is the sanctioned way for tools outside the solver (viz
// staging, turbulence seeding) to obtain a Field3 without calling the raw
// constructor, keeping the one-source-of-truth lint clean.
func Scratch(name string, nx, ny, nz, ghost int) *Field3 {
	s := NewFieldSet(nx, ny, nz, ghost)
	s.Register(FieldMeta{Name: name, Role: RoleScratch, Species: -1})
	s.Build()
	return s.Field(0)
}
