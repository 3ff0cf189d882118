package critpath

import (
	"sort"

	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/prof"
)

// waitEps is the classification threshold: blocked intervals shorter than
// this are scheduling noise, not wait states, and never become critical-
// path jump edges.
const waitEps = int64(50_000) // 50 µs

// Deposit is one rank's view of an analyzed step: the step window, the
// drained comm event trace, and the rank's profiler track for blame
// attribution (nil without one) — all three on the prof.Now clock.
type Deposit struct {
	Rank    int
	Step    int
	Time    float64
	StartNs int64
	EndNs   int64
	PtP     []comm.PtPEvent
	Coll    []comm.CollEvent
	Track   *prof.Track
}

// sendKey identifies a message edge: the sender's envelope as seen by both
// sides (the receiver learns PostNs through the piggybacked envelope).
type sendKey struct {
	src, dst, tag int
	postNs        int64
}

// jump is a candidate critical-path edge on one rank: the rank resumed
// progress at resumeNs after blocking since blockNs, because rank from
// released it (a late sender's post, or a collective root's arrival) at
// fromNs.
type jump struct {
	resumeNs int64
	blockNs  int64
	from     int
	fromNs   int64
	via      string
}

// collGroup is one collective matched across ranks by sequence number.
type collGroup struct {
	enter []int64 // by rank, -1 when the rank's event is missing
	exit  []int64
}

// analyze matches the step's message edges, classifies wait states,
// extracts the cross-rank critical path and attributes it to call-path
// regions. deps is indexed by rank and fully populated.
func analyze(deps []*Deposit, workerTracks []*prof.Track) Record {
	n := len(deps)
	rec := Record{
		Step:  deps[0].Step,
		Time:  deps[0].Time,
		Ranks: n,
	}

	// --- Deterministic structure: census and edge matching. ---
	sends := map[sendKey]bool{}
	for r, d := range deps {
		ops := RankOps{Rank: r, Collectives: len(d.Coll)}
		for _, ev := range d.PtP {
			switch ev.Kind {
			case comm.KindSend:
				ops.Sends++
				sends[sendKey{src: r, dst: ev.Peer, tag: ev.Tag, postNs: ev.PostNs}] = true
			case comm.KindRecv:
				ops.Recvs++
			}
		}
		rec.Sends += ops.Sends
		rec.Recvs += ops.Recvs
		rec.Collectives += ops.Collectives
		rec.RankOps = append(rec.RankOps, ops)
	}
	matched := 0
	for r, d := range deps {
		for _, ev := range d.PtP {
			if ev.Kind != comm.KindRecv {
				continue
			}
			if sends[sendKey{src: ev.Peer, dst: r, tag: ev.Tag, postNs: ev.SendPostNs}] {
				matched++
			}
		}
	}
	rec.Edges = matched
	if rec.Recvs > 0 {
		rec.MatchCompleteness = float64(matched) / float64(rec.Recvs)
	} else {
		rec.MatchCompleteness = 1
	}

	// --- Step window. ---
	lo, hi := deps[0].StartNs, deps[0].EndNs
	for _, d := range deps[1:] {
		if d.StartNs < lo {
			lo = d.StartNs
		}
		if d.EndNs > hi {
			hi = d.EndNs
		}
	}
	rec.StepSpanNs = hi - lo

	// --- Collective matching across ranks by sequence number. ---
	groups := map[int]*collGroup{}
	for r, d := range deps {
		for _, ev := range d.Coll {
			g := groups[ev.Seq]
			if g == nil {
				g = &collGroup{enter: make([]int64, n), exit: make([]int64, n)}
				for i := range g.enter {
					g.enter[i], g.exit[i] = -1, -1
				}
				groups[ev.Seq] = g
			}
			g.enter[r], g.exit[r] = ev.EnterNs, ev.ExitNs
		}
	}

	// --- Wait-state classification and jump-edge collection. ---
	waits := make([]RankWait, n)
	jumps := make([][]jump, n)
	lsPeer := make([]map[int]int64, n)
	collRoot := make([]map[int]int64, n)
	for r := range waits {
		waits[r] = RankWait{Rank: r, LateSenderPeer: -1, CollRoot: -1}
		lsPeer[r] = map[int]int64{}
		collRoot[r] = map[int]int64{}
	}
	for r, d := range deps {
		for _, ev := range d.PtP {
			if ev.Kind != comm.KindRecv {
				continue
			}
			if ev.SendPostNs > ev.StartNs {
				// Late sender: the receiver blocked until the message was
				// posted.
				blocked := ev.DoneNs - ev.StartNs
				waits[r].LateSenderNs += blocked
				lsPeer[r][ev.Peer] += blocked
				if blocked > waitEps {
					jumps[r] = append(jumps[r], jump{
						resumeNs: ev.DoneNs, blockNs: ev.StartNs,
						from: ev.Peer, fromNs: ev.SendPostNs, via: "recv",
					})
				}
			} else {
				// Late receiver: the message idled in the mailbox.
				waits[r].LateRecvNs += ev.StartNs - ev.SendPostNs
			}
		}
	}
	for _, g := range groups {
		root, rootEnter := -1, int64(-1)
		for r := 0; r < n; r++ {
			if g.enter[r] > rootEnter { // ties resolve to the lowest rank
				root, rootEnter = r, g.enter[r]
			}
		}
		if root < 0 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == root || g.enter[r] < 0 {
				continue
			}
			blocked := rootEnter - g.enter[r]
			if blocked <= 0 {
				continue
			}
			waits[r].CollNs += blocked
			collRoot[r][root] += blocked
			if blocked > waitEps && g.exit[r] >= 0 {
				jumps[r] = append(jumps[r], jump{
					resumeNs: g.exit[r], blockNs: g.enter[r],
					from: root, fromNs: rootEnter, via: "collective",
				})
			}
		}
	}
	var totLS, totLR, totColl int64
	for r := range waits {
		waits[r].LateSenderPeer = argmaxBlame(lsPeer[r])
		waits[r].CollRoot = argmaxBlame(collRoot[r])
		waits[r].BlockedNs = waits[r].LateSenderNs + waits[r].CollNs
		if span := deps[r].EndNs - deps[r].StartNs; span > 0 {
			waits[r].BlockedFrac = float64(waits[r].BlockedNs) / float64(span)
		}
		totLS += waits[r].LateSenderNs
		totLR += waits[r].LateRecvNs
		totColl += waits[r].CollNs
	}
	rec.Waits = waits
	// Rank the classes that are blocked time. Mailbox idle time is not lost
	// time and is summed per message, so one straggler's peers pile up as
	// much of it as they block on it: it names the step only when nobody
	// blocked at all.
	switch {
	case totLS == 0 && totColl == 0 && totLR == 0:
		rec.DominantWait = WaitNone
	case totLS == 0 && totColl == 0:
		rec.DominantWait = WaitLateReceiver
	case totLS >= totColl:
		rec.DominantWait = WaitLateSender
	default:
		rec.DominantWait = WaitCollective
	}
	if rec.StepSpanNs > 0 {
		rec.LostFrac = float64(totLS+totColl) / float64(int64(n)*rec.StepSpanNs)
	}

	// --- Critical-path extraction: walk backward from the last-finishing
	// rank, hopping to the releasing rank at every blocking interval. The
	// wait interval itself is excluded from the path (it is lost time, not
	// progress). ---
	for r := range jumps {
		sort.Slice(jumps[r], func(i, j int) bool { return jumps[r][i].resumeNs < jumps[r][j].resumeNs })
	}
	cur, curT := 0, deps[0].EndNs
	for r := 1; r < n; r++ {
		if deps[r].EndNs > curT {
			cur, curT = r, deps[r].EndNs
		}
	}
	var rev []Segment
	via := "end"
	maxHops := rec.Recvs + rec.Collectives*n + n + 1
	for hop := 0; hop < maxHops; hop++ {
		// Latest jump on cur that resumed at or before curT.
		js := jumps[cur]
		idx := sort.Search(len(js), func(i int) bool { return js[i].resumeNs > curT }) - 1
		segStart := deps[cur].StartNs
		if idx >= 0 && js[idx].resumeNs > segStart {
			segStart = js[idx].resumeNs
		}
		if segStart > curT {
			segStart = curT
		}
		rev = append(rev, Segment{Rank: cur, StartNs: segStart, EndNs: curT, Via: via})
		if idx < 0 || js[idx].resumeNs <= deps[cur].StartNs {
			rev[len(rev)-1].Via = "start"
			break
		}
		j := js[idx]
		next := j.fromNs // hop to the releasing rank at its release time
		if next >= curT {
			break // clock anomaly: refuse to loop
		}
		cur, curT, via = j.from, next, j.via
		if curT < deps[cur].StartNs {
			curT = deps[cur].StartNs
		}
		if curT <= deps[cur].StartNs {
			rev = append(rev, Segment{Rank: cur, StartNs: deps[cur].StartNs, EndNs: curT, Via: "start"})
			break
		}
	}
	// Chronological order, merged over adjacent same-rank hops, rebased to
	// the step window start.
	path := make([]Segment, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		if k := len(path); k > 0 && path[k-1].Rank == s.Rank && s.StartNs <= path[k-1].EndNs {
			if s.EndNs > path[k-1].EndNs {
				path[k-1].EndNs = s.EndNs
			}
			continue
		}
		path = append(path, s)
	}
	perRank := make([]int64, n)
	var pathTotal int64
	for i := range path {
		d := path[i].EndNs - path[i].StartNs
		perRank[path[i].Rank] += d
		pathTotal += d
	}
	rec.CritRank = 0
	for r := 1; r < n; r++ {
		if perRank[r] > perRank[rec.CritRank] {
			rec.CritRank = r
		}
	}
	if pathTotal > 0 {
		rec.CritShare = float64(perRank[rec.CritRank]) / float64(pathTotal)
	}

	// --- Blame: sweep each path segment's window over the owning rank's
	// call-path spans; exclusive time per path node, untracked remainder.
	// Pool worker tracks contribute their busy overlap with the path. ---
	blame := map[string]int64{}
	workers := map[string]int64{}
	for _, s := range path {
		d := deps[s.Rank]
		pl, ph := s.StartNs, s.EndNs
		if d.Track != nil {
			snap := d.Track.SnapshotRange(pl, ph)
			covered := blameWindow(snap, pl, ph, blame)
			if un := (ph - pl) - covered; un > 0 {
				rec.UntrackedNs += un
			}
		} else {
			rec.UntrackedNs += ph - pl
		}
		for _, wt := range workerTracks {
			snap := wt.SnapshotRange(pl, ph)
			var busy int64
			for _, ev := range snap.Events {
				busy += clip(ev.Start, ev.Start+ev.Dur, pl, ph)
			}
			if busy > 0 {
				workers[wt.Name()] += busy
			}
		}
	}
	for p, ns := range blame {
		fr := 0.0
		if pathTotal > 0 {
			fr = float64(ns) / float64(pathTotal)
		}
		rec.Blame = append(rec.Blame, RegionBlame{Path: p, Ns: ns, Frac: fr})
	}
	sortBlame(rec.Blame)
	if len(rec.Blame) > 12 {
		rec.Blame = rec.Blame[:12]
	}
	for name, ns := range workers {
		rec.Workers = append(rec.Workers, WorkerShare{Track: name, BusyNs: ns})
	}
	sort.Slice(rec.Workers, func(i, j int) bool { return rec.Workers[i].Track < rec.Workers[j].Track })

	// Rebase path times to the window start for readability.
	for i := range path {
		path[i].StartNs -= lo
		path[i].EndNs -= lo
	}
	rec.Path = path
	rec.Verdict = rec.verdict()
	return rec
}

// argmaxBlame picks the peer with the largest charged time, ties to the
// lowest rank; -1 when the map is empty.
func argmaxBlame(m map[int]int64) int {
	best, bestNs := -1, int64(-1)
	for p, ns := range m {
		if ns > bestNs || (ns == bestNs && p < best) {
			best, bestNs = p, ns
		}
	}
	return best
}

func clip(s, e, lo, hi int64) int64 {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	if e > s {
		return e - s
	}
	return 0
}

// blameWindow accumulates per-call-path exclusive time over [lo, hi) into
// acc and returns the covered time (the window's top-level span coverage).
func blameWindow(snap prof.TrackSnapshot, lo, hi int64, acc map[string]int64) int64 {
	if len(snap.Nodes) == 0 {
		return 0
	}
	incl := make([]int64, len(snap.Nodes))
	for _, ev := range snap.Events {
		incl[ev.Path] += clip(ev.Start, ev.Start+ev.Dur, lo, hi)
	}
	childSum := make([]int64, len(snap.Nodes))
	var covered int64
	for i := 1; i < len(snap.Nodes); i++ {
		p := snap.Nodes[i].Parent
		if p > 0 {
			childSum[p] += incl[i]
		} else {
			covered += incl[i] // top-level span, child of the root
		}
	}
	for i := 1; i < len(snap.Nodes); i++ {
		excl := incl[i] - childSum[i]
		if excl <= 0 {
			continue
		}
		acc[pathString(snap.Nodes, int32(i))] += excl
	}
	return covered
}

// pathString renders a node's full call path ("STEP/RHS/MPI_WAIT").
func pathString(nodes []prof.PathNode, id int32) string {
	var parts []string
	for id > 0 {
		parts = append(parts, nodes[id].Name)
		id = nodes[id].Parent
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	var b []byte
	for i, p := range parts {
		if i > 0 {
			b = append(b, '/')
		}
		b = append(b, p...)
	}
	return string(b)
}
