package solver

// Dynamic load balancing (the ROADMAP's "chemistry dynamic load balancing"
// item): every cost record — already bitwise identical on all ranks via the
// ordered fold — is folded into (a) per-plane weight profiles that re-tile
// the chemistry and fused-assembly sweeps through par.Plan.SetWeights, and
// (b) a deterministic cross-rank work-sharing assignment for the final RK
// stage's reaction sweep. Overloaded ranks export packed cell bundles
// (rho, T, Y rows) to underloaded peers over the existing Isend/Irecv
// interface; importers run the identical per-cell kernel and ship the
// production-rate terms back; the donor applies them in the exact cell and
// reduction-slot order the local sweep would have used. Because every input
// to every decision is deterministic record data, and the per-cell
// arithmetic is unchanged, a balanced run's solution is bitwise identical
// to the unbalanced one at any worker count and rank count.

import (
	"fmt"

	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/reactor"
)

// tagLB is the message-tag base of the work-sharing rounds: each transfer
// gi uses tagLB+3*gi for its size/flags header, +1 for the cell bundle and
// +2 for the rate reply — disjoint from the halo rounds (tagConserved,
// tagFlux span single digits and the 100s).
const tagLB = 200

func lbTagHeader(gi int) int { return tagLB + 3*gi }
func lbTagBundle(gi int) int { return tagLB + 3*gi + 1 }
func lbTagReply(gi int) int  { return tagLB + 3*gi + 2 }

// lbState is the block's balancer: the planner that stabilises weight
// profiles, the current sharing assignment (identical on every rank) and
// this rank's materialised role in it.
type lbState struct {
	planner *cost.Planner
	slack   float64

	profile []float64 // per-plane chemistry proxy sums (scratch)
	density []float64 // per-plane total work density (scratch)

	transfers []cost.Transfer // current assignment, all ranks identical
	exports   []lbExport      // this rank's outgoing bundles, transfer order
	imports   []lbImport      // this rank's incoming bundles, transfer order
	local     []par.Tile      // retained prefix of the chem partition

	hrr  []float64 // ordered per-tile heat-release slots (shared path)
	pack []float64 // bundle pack scratch (Isend copies at post time)
	recv []float64 // bundle receive scratch
	repl []float64 // reply scratch

	exported, imported int64 // cells shipped out / computed for peers

	cExp, cImp *obs.Counter
}

// lbExport is one outgoing transfer: a contiguous suffix segment of the
// chemistry partition whose cells the peer computes this stage.
type lbExport struct {
	gi    int // index into transfers (tag disambiguation)
	to    int
	tiles []par.Tile
	cells int
}

// lbImport is one incoming transfer; sizes arrive in the bundle header.
type lbImport struct {
	gi   int
	from int
}

// InstallLoadBalance attaches the dynamic load balancer: every `every`
// steps (at cost-record cadence) the weight profiles and the cross-rank
// sharing assignment are re-derived, with the given hysteresis (fractional
// profile change below which the active plan is kept; <=0 selects 0.10) and
// slack (fractional rank imbalance tolerated before work-sharing; <=0
// selects 0.05). Requires an installed cost collector — the balancer is
// driven entirely by its deterministic records, so in decomposed runs every
// rank must install identical settings (the decisions are collective in
// effect, though they add no new collectives).
func (b *Block) InstallLoadBalance(every int, hysteresis, slack float64) error {
	if b.costC == nil {
		return fmt.Errorf("solver: load balancing requires an installed cost collector")
	}
	if every < 1 {
		every = 1
	}
	if hysteresis <= 0 {
		hysteresis = 0.10
	}
	if slack <= 0 {
		slack = 0.05
	}
	b.lb = &lbState{planner: cost.NewPlanner(every, hysteresis), slack: slack}
	return nil
}

// LoadBalanceEvery returns the installed balancer's re-plan cadence in
// steps (0 when none is installed).
func (b *Block) LoadBalanceEvery() int {
	if b.lb == nil {
		return 0
	}
	return b.lb.planner.Every()
}

// LoadBalanceStats returns the cells this rank shipped to peers and the
// cells it computed on behalf of peers since installation.
func (b *Block) LoadBalanceStats() (exported, imported int64) {
	if b.lb == nil {
		return 0, 0
	}
	return b.lb.exported, b.lb.imported
}

// lbPlan folds a fresh cost record into the balancer. Runs on every rank
// with the identical record (costStep's ordered fold), so the weight
// profiles each rank installs for itself and the transfer list all ranks
// share are consistent without further communication.
func (b *Block) lbPlan(rec *cost.Record) {
	lb := b.lb
	if lb == nil {
		return
	}
	r := b.interior()
	ax := par.SweepAxis(r)
	if ax < 0 {
		return
	}
	ext := r.Ext(ax)
	cells := r.Ext(0) * r.Ext(1) * r.Ext(2)
	planeCells := float64(cells / ext)

	// Fold cost_chem into the per-plane chemistry profile.
	if cap(lb.profile) < ext {
		lb.profile = make([]float64, ext)
		lb.density = make([]float64, ext)
	}
	lb.profile = lb.profile[:ext]
	lb.density = lb.density[:ext]
	for p := range lb.profile {
		lb.profile[p] = 0
	}
	for k := r.Lo[2]; k < r.Hi[2]; k++ {
		for j := r.Lo[1]; j < r.Hi[1]; j++ {
			for i := r.Lo[0]; i < r.Hi[0]; i++ {
				idx := [3]int{i, j, k}
				lb.profile[idx[ax]-r.Lo[ax]] += b.costChemF.At(i, j, k)
			}
		}
	}

	if install, changed := lb.planner.Fold(rec.Step, lb.profile); changed {
		// Chemistry: weight by the proxy, with the global mean plane weight
		// as budget so near-idle ranks merge their cheap planes instead of
		// emitting many near-empty tiles (the global record makes the
		// budget identical in meaning on every rank).
		var budget float64
		if chem := chemStat(rec); chem != nil && len(rec.RankTotals) > 0 {
			budget = chem.ProxyTotal / float64(len(rec.RankTotals)*ext)
		}
		b.plan.SetWeights(cost.ChemKernel, install, budget)
		// Fused assembly: weight by total work density (uniform base plus
		// chemistry), no global budget — its base cost is real on every
		// rank, so cheap ranks must keep enough tiles for their own pool.
		base := float64(len(cost.Kernels) - 1)
		for p, v := range install {
			lb.density[p] = base*planeCells + v
		}
		b.plan.SetWeights(cost.AssemblyKernel, lb.density, 0)
	}

	// Cross-rank sharing assignment (decomposed runs only).
	lb.transfers, lb.exports, lb.imports, lb.local = nil, lb.exports[:0], lb.imports[:0], nil
	if b.cart == nil || len(rec.RankTotals) < 2 {
		return
	}
	lb.transfers = cost.PlanSharing(rec.RankTotals, lb.slack)
	if len(lb.transfers) == 0 {
		return
	}
	me := b.Rank()
	part := b.plan.PartitionFor(cost.ChemKernel, r, -1)
	idx := part.Len()
	for gi, t := range lb.transfers {
		if t.To == me {
			lb.imports = append(lb.imports, lbImport{gi: gi, from: t.From})
		}
		if t.From != me {
			continue
		}
		// Donor: peel tiles off the end of the partition until their
		// planned weight best matches the transfer (closest-rule stop,
		// always retaining at least the first tile).
		var tiles []par.Tile
		var acc float64
		tcells := 0
		for idx > 1 {
			w := part.Weight(idx - 1)
			if acc+w-t.Work > t.Work-acc {
				break
			}
			idx--
			tl := part.Tile(idx)
			tiles = append(tiles, tl)
			acc += w
			tcells += tl.Ext(0) * tl.Ext(1) * tl.Ext(2)
		}
		lb.exports = append(lb.exports, lbExport{gi: gi, to: t.To, tiles: tiles, cells: tcells})
	}
	if len(lb.exports) > 0 {
		lb.local = part.Tiles()[:idx]
	}
}

// chemStat returns the record's chemistry kernel entry.
func chemStat(rec *cost.Record) *cost.KernelStat {
	for i := range rec.Kernels {
		if rec.Kernels[i].Kernel == cost.ChemKernel {
			return &rec.Kernels[i]
		}
	}
	return nil
}

// lbGrow returns buf resized to n (reallocating only on growth).
func lbGrow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// chemSourceShared is the final-RK-stage reaction sweep under an active
// work-sharing assignment. Protocol per transfer gi (donor d → recipient r,
// sizes fixed by d's deterministic partition):
//
//	d → r  header  [cells, flags]           (flags: bit0 heat release, bit1 cost proxy)
//	d → r  bundle  cells × (rho, T, Y[ns])  (skipped when cells == 0)
//	r → d  reply   cells × (W·wdot[0..ns-2], [hrr], [substeps])
//
// Isend copies at post time, so donors post all bundles first, compute
// their retained tiles while the recipients work, then block on replies;
// recipients compute their own (underloaded) sweep first, then serve
// bundles. Donor and recipient sets are disjoint (PlanSharing), so the
// exchange is deadlock-free. The donor applies the returned terms in the
// identical cell order and reduction slots the local sweep would have used:
// the solution, the heat-release integral and the cost maps are bitwise
// equal to local execution.
func (b *Block) chemSourceShared() {
	lb := b.lb
	c := b.cart.Comm
	ns := b.ns
	species := b.mech.Set.Species
	r := b.interior()
	part := b.plan.PartitionFor(cost.ChemKernel, r, -1)
	n := part.Len()
	doCost := b.collectCost
	collect := b.collectHRR

	if collect {
		lb.hrr = lbGrow(lb.hrr, n)
		for i := range lb.hrr {
			lb.hrr[i] = 0
		}
	}
	var flags float64
	if collect {
		flags++
	}
	if doCost {
		flags += 2
	}
	vals := ns + 2  // bundle doubles per cell
	rvals := ns - 1 // reply doubles per cell
	if collect {
		rvals++
	}
	if doCost {
		rvals++
	}
	var stageExp, stageImp int64

	// 1) Post all export bundles (buffered sends complete immediately).
	for ei := range lb.exports {
		ex := &lb.exports[ei]
		c.Isend(ex.to, lbTagHeader(ex.gi), []float64{float64(ex.cells), flags})
		if ex.cells == 0 {
			continue
		}
		lb.pack = lbGrow(lb.pack, ex.cells*vals)
		o := 0
		for _, t := range ex.tiles {
			for k := t.Lo[2]; k < t.Hi[2]; k++ {
				for j := t.Lo[1]; j < t.Hi[1]; j++ {
					for i := t.Lo[0]; i < t.Hi[0]; i++ {
						lb.pack[o] = b.Rho.At(i, j, k)
						lb.pack[o+1] = b.T.At(i, j, k)
						for s := 0; s < ns; s++ {
							lb.pack[o+2+s] = b.Y[s].At(i, j, k)
						}
						o += vals
					}
				}
			}
		}
		c.Isend(ex.to, lbTagBundle(ex.gi), lb.pack)
		stageExp += int64(ex.cells)
	}
	lb.exported += stageExp

	// 2) Local compute over the retained partition prefix (or, on a pure
	// recipient, the full partition).
	localTiles := part.Tiles()
	if len(lb.exports) > 0 {
		localTiles = lb.local
	}
	b.plan.RunTiles("REACTION_RATE_BOUNDS", localTiles, func(t par.Tile, w int) {
		hrr, tc := b.chemTileSweep(t, w, collect, doCost)
		if collect {
			lb.hrr[t.Index] = hrr
		}
		if doCost {
			b.cSlots[t.Index] = tc
		}
	})
	if doCost {
		b.lbFillOwner(lb.exports)
	}

	// 3) Serve imports: compute the donors' cells with the identical kernel
	// and ship the terms back.
	var hdr [2]float64
	for ii := range lb.imports {
		im := &lb.imports[ii]
		c.Irecv(im.from, lbTagHeader(im.gi), hdr[:]).Wait()
		cells := int(hdr[0])
		if cells == 0 {
			continue
		}
		fl := int(hdr[1])
		wantHRR := fl&1 != 0
		wantCost := fl&2 != 0
		rv := ns - 1
		if wantHRR {
			rv++
		}
		if wantCost {
			rv++
		}
		lb.recv = lbGrow(lb.recv, cells*vals)
		c.Irecv(im.from, lbTagBundle(im.gi), lb.recv).Wait()
		lb.repl = lbGrow(lb.repl, cells*rv)
		in, out := lb.recv, lb.repl
		// Fixed-size chunks over the pool: every cell's reply slot is
		// disjoint, so the chunking never affects the returned bits.
		const chunk = 64
		nch := (cells + chunk - 1) / chunk
		b.plan.RunItems("REACTION_RATE_BOUNDS", nch, func(ci, w int) {
			ws := &b.ws[w]
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > cells {
				hi = cells
			}
			for cell := lo; cell < hi; cell++ {
				p := cell * vals
				rho, T := in[p], in[p+1]
				for s := 0; s < ns; s++ {
					ws.cw[s] = rho * in[p+2+s] / species[s].W
				}
				ws.mech.ProductionRates(T, ws.cw, ws.wdot)
				q := cell * rv
				for s := 0; s < ns-1; s++ {
					out[q+s] = species[s].W * ws.wdot[s]
				}
				q += ns - 1
				if wantHRR {
					out[q] = ws.mech.HeatReleaseRate(T, ws.wdot)
					q++
				}
				if wantCost {
					inv := 1 / rho
					for s := 0; s < ns; s++ {
						ws.yw[s] = ws.cw[s] * species[s].W * inv
						ws.hw[s] = species[s].W * ws.wdot[s] * inv
					}
					out[q] = cost.Substeps(reactor.SubstepRate(T, ws.yw, ws.hw, 0, 0), b.costDt)
				}
			}
		})
		c.Isend(im.from, lbTagReply(im.gi), out)
		stageImp += int64(cells)
	}
	lb.imported += stageImp

	// 4) Apply replies in the identical cell order the local sweep uses.
	for ei := range lb.exports {
		ex := &lb.exports[ei]
		if ex.cells == 0 {
			continue
		}
		lb.repl = lbGrow(lb.repl, ex.cells*rvals)
		c.Irecv(ex.to, lbTagReply(ex.gi), lb.repl).Wait()
		o := 0
		for _, t := range ex.tiles {
			var hrr, tc float64
			for k := t.Lo[2]; k < t.Hi[2]; k++ {
				for j := t.Lo[1]; j < t.Hi[1]; j++ {
					for i := t.Lo[0]; i < t.Hi[0]; i++ {
						for s := 0; s < ns-1; s++ {
							b.rhs[iY0+s].Add(i, j, k, lb.repl[o+s])
						}
						q := o + ns - 1
						if collect {
							hrr += lb.repl[q] * b.cellVol(i, j, k)
							q++
						}
						if doCost {
							s := lb.repl[q]
							b.costChemF.Set(i, j, k, s)
							tc += s
						}
						o += rvals
					}
				}
			}
			if collect {
				lb.hrr[t.Index] = hrr
			}
			if doCost {
				b.cSlots[t.Index] = tc
			}
		}
	}

	// 5) Ordered reduction over the full partition's slots — the same
	// ascending-index sum RunReduce performs locally.
	if collect {
		var sum float64
		for _, v := range lb.hrr {
			sum += v
		}
		b.hrrAcc = sum
	}
	b.lbBump(stageExp, stageImp)
}

// lbBump adds the stage's shipped/served cell counts to the balancer's
// metric counters (no-op without an attached registry).
func (b *Block) lbBump(exported, imported int64) {
	if b.Metrics == nil {
		return
	}
	lb := b.lb
	if lb.cExp == nil {
		lb.cExp = b.Metrics.Counter("par.steal.exported")
		lb.cImp = b.Metrics.Counter("par.steal.imported")
	}
	lb.cExp.Add(exported)
	lb.cImp.Add(imported)
}

// lbFillOwner stamps the cost_owner map for the stage: every interior cell
// was computed by this rank except the exported tiles, which carry the
// recipient's rank. Runs only on cost-due stages with the balancer
// installed, so the map always pairs with the step's cost_chem.
func (b *Block) lbFillOwner(exports []lbExport) {
	if b.costOwnF == nil {
		return
	}
	me := float64(b.Rank())
	r := b.interior()
	for k := r.Lo[2]; k < r.Hi[2]; k++ {
		for j := r.Lo[1]; j < r.Hi[1]; j++ {
			for i := r.Lo[0]; i < r.Hi[0]; i++ {
				b.costOwnF.Set(i, j, k, me)
			}
		}
	}
	for ei := range exports {
		ex := &exports[ei]
		owner := float64(ex.to)
		for _, t := range ex.tiles {
			for k := t.Lo[2]; k < t.Hi[2]; k++ {
				for j := t.Lo[1]; j < t.Hi[1]; j++ {
					for i := t.Lo[0]; i < t.Hi[0]; i++ {
						b.costOwnF.Set(i, j, k, owner)
					}
				}
			}
		}
	}
}
