package critpath

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
)

const ms = int64(1e6)

// stragglerDeposits builds a synthetic 3-rank step in which rank 1 computes
// for 10 ms before sending to ranks 0 and 2, who posted their waits at 1 ms
// and block until the message lands: the textbook late-sender pattern.
func stragglerDeposits() []*Deposit {
	send := func(peer int, postNs int64) comm.PtPEvent {
		return comm.PtPEvent{Kind: comm.KindSend, Peer: peer, Tag: 7, Bytes: 800, Step: 4, PostNs: postNs}
	}
	recv := func(peer int, startNs, doneNs, sendPostNs int64) comm.PtPEvent {
		return comm.PtPEvent{
			Kind: comm.KindRecv, Peer: peer, Tag: 7, Bytes: 800, Step: 4,
			PostNs: startNs, StartNs: startNs, DoneNs: doneNs,
			SendPostNs: sendPostNs, SendStep: 4,
		}
	}
	return []*Deposit{
		{Rank: 0, Step: 4, Time: 1.5, StartNs: 0, EndNs: 12 * ms,
			PtP: []comm.PtPEvent{recv(1, 1*ms, 10*ms+100_000, 10*ms)}},
		{Rank: 1, Step: 4, Time: 1.5, StartNs: 0, EndNs: 11 * ms,
			PtP: []comm.PtPEvent{send(0, 10*ms), send(2, 10*ms)}},
		{Rank: 2, Step: 4, Time: 1.5, StartNs: 0, EndNs: 11*ms + 500_000,
			PtP: []comm.PtPEvent{recv(1, 1*ms, 10*ms+50_000, 10*ms)}},
	}
}

func TestAnalyzeLateSenderPath(t *testing.T) {
	rec := analyze(stragglerDeposits(), nil)

	if rec.Sends != 2 || rec.Recvs != 2 || rec.Edges != 2 {
		t.Fatalf("census: sends=%d recvs=%d edges=%d, want 2/2/2", rec.Sends, rec.Recvs, rec.Edges)
	}
	if rec.MatchCompleteness != 1 {
		t.Fatalf("match completeness %v, want 1", rec.MatchCompleteness)
	}
	if rec.DominantWait != WaitLateSender {
		t.Fatalf("dominant wait %q, want late_sender", rec.DominantWait)
	}
	if rec.CritRank != 1 {
		t.Fatalf("crit rank %d, want straggler rank 1 (path %+v)", rec.CritRank, rec.Path)
	}
	for _, r := range []int{0, 2} {
		w := rec.Waits[r]
		if w.LateSenderNs < 9*ms || w.LateSenderPeer != 1 {
			t.Fatalf("rank %d wait %+v, want ≥9ms late-sender blame on rank 1", r, w)
		}
	}
	if rec.Waits[1].LateSenderNs != 0 {
		t.Fatalf("straggler charged with late-sender wait: %+v", rec.Waits[1])
	}
	// The path must spend its bulk on rank 1 and end on rank 0 (last to
	// finish), entering rank 0 only when rank 1's send released it.
	if len(rec.Path) < 2 {
		t.Fatalf("path too short: %+v", rec.Path)
	}
	last := rec.Path[len(rec.Path)-1]
	if last.Rank != 0 || last.StartNs < 10*ms {
		t.Fatalf("last segment %+v, want rank 0 starting after the 10ms release", last)
	}
	var onStraggler int64
	for _, s := range rec.Path {
		if s.Rank == 1 {
			onStraggler += s.EndNs - s.StartNs
		}
	}
	if onStraggler < 9*ms {
		t.Fatalf("critical path spends %dns on the straggler, want ≥9ms (path %+v)", onStraggler, rec.Path)
	}
	if rec.CritShare < 0.7 {
		t.Fatalf("crit share %v, want >0.7", rec.CritShare)
	}
	if rec.LostFrac < 0.4 || rec.LostFrac > 0.7 {
		t.Fatalf("lost frac %v, want ≈0.5", rec.LostFrac)
	}
	for _, want := range []string{"rank 1", "late-sender", "ranks 0,2"} {
		if !strings.Contains(rec.Verdict, want) {
			t.Fatalf("verdict %q missing %q", rec.Verdict, want)
		}
	}
}

// TestDominantWaitRanksBlockedTime: a straggler's peer blocks once on its
// late message while the straggler finds every message of the peer idling in
// its mailbox, so the idle total (summed per message) exceeds the blocked
// total. The step was lost to the late sender all the same.
func TestDominantWaitRanksBlockedTime(t *testing.T) {
	recv := func(peer int, startNs, doneNs, sendPostNs int64) comm.PtPEvent {
		return comm.PtPEvent{Kind: comm.KindRecv, Peer: peer, Tag: 7, Step: 4,
			PostNs: startNs, StartNs: startNs, DoneNs: doneNs, SendPostNs: sendPostNs}
	}
	deps := []*Deposit{
		{Rank: 0, Step: 4, StartNs: 0, EndNs: 12 * ms,
			PtP: []comm.PtPEvent{recv(1, 1*ms, 10*ms, 10*ms-1)}},
		{Rank: 1, Step: 4, StartNs: 0, EndNs: 11 * ms,
			PtP: []comm.PtPEvent{recv(0, 9*ms, 9*ms, 1*ms), recv(0, 9*ms, 9*ms, 1*ms), recv(0, 9*ms, 9*ms, 1*ms)}},
	}
	rec := analyze(deps, nil)
	ls, lr := rec.Waits[0].LateSenderNs, rec.Waits[1].LateRecvNs
	if !(lr > ls && ls > 0) {
		t.Fatalf("fixture: late_recv %d must exceed late_sender %d > 0", lr, ls)
	}
	if rec.DominantWait != WaitLateSender {
		t.Fatalf("dominant wait %q, want late_sender (blocked %d ns, mailbox idle %d ns)", rec.DominantWait, ls, lr)
	}
	// Mailbox idle time alone still names the step.
	rec = analyze(deps[1:], nil)
	if rec.DominantWait != WaitLateReceiver {
		t.Fatalf("dominant wait %q with no blocked time, want late_receiver", rec.DominantWait)
	}
}

func TestAnalyzeCollectiveRoot(t *testing.T) {
	coll := func(seq int, enter, exit int64) comm.CollEvent {
		return comm.CollEvent{Kind: comm.KindAllreduce, Seq: seq, Bytes: 8, Step: 2, EnterNs: enter, ExitNs: exit}
	}
	deps := []*Deposit{
		{Rank: 0, Step: 2, StartNs: 0, EndNs: 9*ms + 500_000,
			Coll: []comm.CollEvent{coll(0, 1*ms, 9*ms+200_000)}},
		{Rank: 1, Step: 2, StartNs: 0, EndNs: 9*ms + 300_000,
			Coll: []comm.CollEvent{coll(0, 9*ms, 9*ms+200_000)}},
	}
	rec := analyze(deps, nil)

	if rec.Collectives != 2 {
		t.Fatalf("collectives %d, want 2", rec.Collectives)
	}
	if rec.DominantWait != WaitCollective {
		t.Fatalf("dominant wait %q, want collective", rec.DominantWait)
	}
	if w := rec.Waits[0]; w.CollNs != 8*ms || w.CollRoot != 1 {
		t.Fatalf("rank 0 wait %+v, want 8ms rooted at rank 1", w)
	}
	if w := rec.Waits[1]; w.CollNs != 0 {
		t.Fatalf("root rank charged with collective wait: %+v", w)
	}
	if rec.CritRank != 1 {
		t.Fatalf("crit rank %d, want root-cause rank 1 (path %+v)", rec.CritRank, rec.Path)
	}
	if !strings.Contains(rec.Verdict, "rooted at rank 1") {
		t.Fatalf("verdict %q missing collective root cause", rec.Verdict)
	}
}

func TestAnalyzeStructureDeterministic(t *testing.T) {
	// Same operations, jittered timings: the structural fields must agree.
	jitter := stragglerDeposits()
	for _, d := range jitter {
		d.EndNs += 3 * ms
		for i := range d.PtP {
			d.PtP[i].StartNs += 500_000
			d.PtP[i].DoneNs += 2 * ms
		}
	}
	a, b := analyze(stragglerDeposits(), nil), analyze(jitter, nil)
	if a.Sends != b.Sends || a.Recvs != b.Recvs || a.Collectives != b.Collectives ||
		a.Edges != b.Edges || a.MatchCompleteness != b.MatchCompleteness {
		t.Fatalf("structure drifted with timing: %+v vs %+v", a, b)
	}
	if len(a.RankOps) != len(b.RankOps) {
		t.Fatalf("rank ops length drifted")
	}
	for i := range a.RankOps {
		if a.RankOps[i] != b.RankOps[i] {
			t.Fatalf("rank ops[%d] drifted: %+v vs %+v", i, a.RankOps[i], b.RankOps[i])
		}
	}
}

func TestAnalyzeUnmatchedRecvLowersCompleteness(t *testing.T) {
	deps := stragglerDeposits()
	// A message from outside the traced window: no matching send event.
	deps[0].PtP = append(deps[0].PtP, comm.PtPEvent{
		Kind: comm.KindRecv, Peer: 2, Tag: 99, Step: 4,
		PostNs: 2 * ms, StartNs: 2 * ms, DoneNs: 2*ms + 10_000, SendPostNs: 1 * ms,
	})
	rec := analyze(deps, nil)
	if rec.Recvs != 3 || rec.Edges != 2 {
		t.Fatalf("recvs=%d edges=%d, want 3 recvs with 2 matched", rec.Recvs, rec.Edges)
	}
	if rec.MatchCompleteness <= 0.6 || rec.MatchCompleteness >= 0.7 {
		t.Fatalf("match completeness %v, want 2/3", rec.MatchCompleteness)
	}
}

func TestAnalyzeBlameFromProfTrack(t *testing.T) {
	p := prof.New()
	p.SetEnabled(true)
	tr := p.NewTrack(prof.GroupRank, "rank0")

	start := prof.Now()
	step := tr.Begin("STEP")
	chem := tr.Begin("CHEM")
	deadline := time.Now().Add(3 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	chem.End()
	step.End()
	end := prof.Now()

	rec := analyze([]*Deposit{{Rank: 0, Step: 1, StartNs: start, EndNs: end, Track: tr}}, nil)
	var chemNs int64
	for _, bl := range rec.Blame {
		if bl.Path == "STEP/CHEM" {
			chemNs = bl.Ns
		}
	}
	if chemNs < 2*ms {
		t.Fatalf("STEP/CHEM blamed for %dns, want ≥2ms (blame %+v)", chemNs, rec.Blame)
	}
	if !strings.Contains(rec.Verdict, "STEP/CHEM") {
		t.Fatalf("verdict %q does not name the blamed region", rec.Verdict)
	}
}

func TestAnalyzerDepositBarrierAndPublish(t *testing.T) {
	a := New(2)
	if a.Due(2) {
		t.Fatal("disabled analyzer reported due")
	}
	a.Enable()
	if a.Due(3) || !a.Due(4) {
		t.Fatal("cadence: want due only on multiples of every")
	}
	if err := a.Register(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(2); err == nil {
		t.Fatal("conflicting rank count accepted")
	}
	reg := obs.NewRegistry()
	a.AttachMetrics(reg)
	var mu sync.Mutex
	var got []Record
	a.Subscribe(func(r Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})

	deps := stragglerDeposits()
	var wg sync.WaitGroup
	for _, d := range deps {
		wg.Add(1)
		go func(d Deposit) {
			defer wg.Done()
			a.Deposit(d)
		}(*d)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("subscriber fired %d times, want once", len(got))
	}
	if got[0].Step != 4 || got[0].CritRank != 1 {
		t.Fatalf("published record %+v", got[0])
	}
	if lat := a.Latest(); lat == nil || lat.Step != 4 {
		t.Fatalf("Latest() = %+v", lat)
	}
	if v := reg.Gauge("critpath.crit_rank").Value(); v != 1 {
		t.Fatalf("critpath.crit_rank gauge %v, want 1", v)
	}
	if v := reg.Gauge("critpath.late_sender_ns").Value(); v < float64(18*ms) {
		t.Fatalf("critpath.late_sender_ns gauge %v, want ≥18ms", v)
	}
}

func TestAnalyzerAbortUnblocksDeposit(t *testing.T) {
	a := New(1)
	a.Enable()
	if err := a.Register(2); err != nil {
		t.Fatal(err)
	}
	var aborted sync.Once
	flag := make(chan struct{})
	var hook func()
	a.BindAbort(func(fn func()) { hook = fn }, func() bool {
		select {
		case <-flag:
			return true
		default:
			return false
		}
	})

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		a.Deposit(Deposit{Rank: 0, Step: 1, StartNs: 0, EndNs: ms})
	}()
	time.Sleep(20 * time.Millisecond) // let the deposit park in the barrier
	aborted.Do(func() { close(flag) })
	hook()
	select {
	case p := <-panicked:
		if p == nil {
			t.Fatal("deposit returned without the peer depositing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deposit still blocked after abort")
	}
}

func TestHandlerAndStoreRoundTrip(t *testing.T) {
	a := New(1)
	a.Enable()
	if err := a.Register(1); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/critpath", nil))
	if rr.Body.String() != "{}\n" {
		t.Fatalf("pre-record body %q, want empty object", rr.Body.String())
	}

	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	a.Subscribe(func(r Record) { tr.Layer(obs.KindCritPath, r) })

	a.Deposit(Deposit{Rank: 0, Step: 3, Time: 0.5, StartNs: 0, EndNs: 2 * ms})
	a.Deposit(Deposit{Rank: 0, Step: 6, Time: 1.0, StartNs: 2 * ms, EndNs: 5 * ms})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/critpath", nil))
	var rec Record
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}
	if rec.Step != 6 || rec.Ranks != 1 {
		t.Fatalf("handler served %+v", rec)
	}

	all, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.Payloads[Record](all, obs.KindCritPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Step != 3 || recs[1].Step != 6 {
		t.Fatalf("trace round trip: %+v", recs)
	}
}

func TestChromeTraceOverlay(t *testing.T) {
	p := prof.New()
	p.SetEnabled(true)
	tr := p.NewTrack(prof.GroupRank, "rank0")
	a := New(1)
	a.Enable()
	if err := a.Register(1); err != nil {
		t.Fatal(err)
	}
	start := prof.Now()
	sp := tr.Begin("STEP")
	time.Sleep(time.Millisecond)
	sp.End()
	end := prof.Now()
	a.Deposit(Deposit{Rank: 0, Step: 1, StartNs: start, EndNs: end, Track: tr})

	var sb strings.Builder
	if err := a.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"critical-path", "crit:rank0", "STEP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q", want)
		}
	}
}
