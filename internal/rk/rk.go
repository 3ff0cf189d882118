// Package rk implements the explicit low-storage Runge–Kutta time
// integrator used by S3D. The solution is advanced through a six-stage
// fourth-order explicit Runge–Kutta method in 2N (two-register) form
// (paper §2.6, citing Kennedy & Carpenter's low-storage schemes). Drive runs
// it on the solver's fields; Step runs it on plain slices, the oracle Drive
// is tested against.
package rk

// Scheme holds the 2N-storage coefficients of an explicit Runge–Kutta
// method. Stage s of the update reads
//
//	dq ← A[s]·dq + Δt·F(q, t + C[s]·Δt)
//	q  ← q + B[s]·dq
//
// with dq zeroed before the first stage (A[0] must be 0).
type Scheme struct {
	Name    string
	A, B, C []float64
	Order   int
}

// Stages returns the number of stages.
func (s *Scheme) Stages() int { return len(s.A) }

// RK46NL is the six-stage fourth-order low-storage scheme (Berland, Bogey &
// Bailly's optimised Kennedy–Carpenter-family coefficients), the production
// integrator: fourth-order accurate with an extended stability envelope for
// convective problems.
var RK46NL = &Scheme{
	Name: "RK46-NL six-stage fourth-order (2N)",
	A: []float64{
		0.0,
		-0.737101392796,
		-1.634740794341,
		-0.744739003780,
		-1.469897351522,
		-2.813971388035,
	},
	B: []float64{
		0.032918605146,
		0.823256998200,
		0.381530948900,
		0.200092213184,
		1.718581042715,
		0.27,
	},
	C: []float64{
		0.0,
		0.032918605146,
		0.249351723343,
		0.466911705055,
		0.582030414044,
		0.847252983783,
	},
	Order: 4,
}

// State is the minimal interface a time-integrated system exposes to the
// scheme: a flat view of the solution register and a matching scratch
// register. The solver's conserved-variable fields satisfy it through thin
// adapters; plain []float64 systems use VecState.
type State interface {
	// Len returns the number of degrees of freedom.
	Len() int
	// Q returns the solution register.
	Q() []float64
	// DQ returns the accumulation register (same length as Q).
	DQ() []float64
}

// RHS evaluates dst = F(q, t). dst aliases nothing in q.
type RHS func(t float64, q []float64, dst []float64)

// VecState is a State over plain slices.
type VecState struct {
	QV, DQV []float64
}

// Len returns the system size.
func (v *VecState) Len() int { return len(v.QV) }

// Q returns the solution register.
func (v *VecState) Q() []float64 { return v.QV }

// DQ returns the accumulation register.
func (v *VecState) DQ() []float64 { return v.DQV }

// NewVecState allocates a VecState of length n.
func NewVecState(n int) *VecState {
	return &VecState{QV: make([]float64, n), DQV: make([]float64, n)}
}

// Step advances the state by one step of size dt using the 2N-storage
// update, allocating a single temporary for the RHS evaluation.
func (s *Scheme) Step(st State, t, dt float64, f RHS) {
	q, dq := st.Q(), st.DQ()
	for i := range dq {
		dq[i] = 0
	}
	tmp := make([]float64, len(q))
	s.StepScratch(st, t, dt, f, tmp)
}

// StepScratch is Step with a caller-provided RHS buffer, so a time loop can
// run allocation-free.
func (s *Scheme) StepScratch(st State, t, dt float64, f RHS, tmp []float64) {
	q, dq := st.Q(), st.DQ()
	for i := range dq {
		dq[i] = 0
	}
	for stage := 0; stage < s.Stages(); stage++ {
		f(t+s.C[stage]*dt, q, tmp)
		a, b := s.A[stage], s.B[stage]
		for i := range q {
			dq[i] = a*dq[i] + dt*tmp[i]
			q[i] += b * dq[i]
		}
	}
}

// StageFunc is the field-based stage update used by the PDE solver, which
// stores its registers as structured fields rather than flat vectors:
// given the stage coefficients it must perform
// dq ← a·dq + dt·rhs and q ← q + b·dq over all degrees of freedom.
type StageFunc func(stage int, a, b, cdt float64)

// Drive runs the 2N stage sequence through a caller-supplied stage update.
// evalRHS must deposit F(q, t+c·dt) wherever the StageFunc expects it.
func (s *Scheme) Drive(t, dt float64, evalRHS func(stageTime float64), apply StageFunc) {
	for stage := 0; stage < s.Stages(); stage++ {
		evalRHS(t + s.C[stage]*dt)
		apply(stage, s.A[stage], s.B[stage], s.C[stage]*dt)
	}
}
