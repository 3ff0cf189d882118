// Package rk implements the explicit low-storage Runge–Kutta time
// integrator used by S3D. The solution is advanced through a six-stage
// fourth-order explicit Runge–Kutta method in 2N (two-register) form
// (paper §2.6, citing Kennedy & Carpenter's low-storage schemes). Drive runs
// the stage sequence; the caller evaluates the right-hand side and applies
// each stage's 2N update to its own registers (the solver's conserved
// fields, a test's plain slices).
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

// StageFunc is the caller's stage update: given the stage coefficients it
// must perform dq ← a·dq + dt·rhs and q ← q + b·dq over all degrees of
// freedom, on registers it owns (the PDE solver's are structured fields).
type StageFunc func(stage int, a, b, cdt float64)

// Drive runs the 2N stage sequence through a caller-supplied stage update.
// evalRHS must deposit F(q, t+c·dt) wherever the StageFunc expects it.
func (s *Scheme) Drive(t, dt float64, evalRHS func(stageTime float64), apply StageFunc) {
	for stage := 0; stage < s.Stages(); stage++ {
		evalRHS(t + s.C[stage]*dt)
		apply(stage, s.A[stage], s.B[stage], s.C[stage]*dt)
	}
}
