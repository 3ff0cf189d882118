package comm

import (
	"strings"
	"testing"
	"time"
)

// TestAllreduceOrderedEdgePaths covers the failure/edge paths: zero-length
// payload (a pure synchronization point), a single-rank world, and
// mismatched lengths — which must surface as an error on every rank, not a
// panic, and must not deadlock the collective.
func TestAllreduceOrderedEdgePaths(t *testing.T) {
	t.Run("zero-length", func(t *testing.T) {
		w := NewWorld(2)
		if err := w.Run(func(c *Comm) {
			if err := c.AllreduceOrdered(nil, func(dst, src []float64) {
				t.Error("combine called on empty payload")
			}); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("single-rank", func(t *testing.T) {
		w := NewWorld(1)
		if err := w.Run(func(c *Comm) {
			vals := []float64{3, 4}
			if err := c.AllreduceOrdered(vals, func(dst, src []float64) {
				t.Error("combine must not run with one rank")
			}); err != nil {
				t.Error(err)
			}
			if vals[0] != 3 || vals[1] != 4 {
				t.Errorf("single-rank reduce changed the payload: %v", vals)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mismatched-lengths", func(t *testing.T) {
		w := NewWorld(2)
		errs := make([]error, 2)
		if err := w.Run(func(c *Comm) {
			vals := make([]float64, 1+c.Rank()) // rank 0: len 1, rank 1: len 2
			errs[c.Rank()] = c.AllreduceOrdered(vals, func(dst, src []float64) {})
		}); err != nil {
			t.Fatalf("mismatch must not panic the world: %v", err)
		}
		for r, err := range errs {
			if err == nil {
				t.Fatalf("rank %d got no error on mismatched lengths", r)
			}
			if !strings.Contains(err.Error(), "length mismatch") {
				t.Fatalf("rank %d error = %v", r, err)
			}
		}
	})
}

// TestRequestTimestampsPersist: a receive's two prof.Now stamps — Wait's
// entry and its completion — persist into both places that report the wait,
// so the two agree to the nanosecond: over a ping-pong whose every message is
// sent late, the StartNs…DoneNs intervals of a rank's drained receive events
// sum to its WaitByPeer row, and RankStats.WaitSec is that sum.
func TestRequestTimestampsPersist(t *testing.T) {
	const rounds = 4
	w := NewWorld(2)
	recvs := make([][]PtPEvent, 2)
	if err := w.Run(func(c *Comm) {
		c.ArmTrace(true)
		buf := make([]float64, 3)
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				time.Sleep(2 * time.Millisecond) // rank 1 is already waiting
				c.Send(1, i, buf)
				c.Recv(1, i, buf)
			} else {
				c.Recv(0, i, buf)
				time.Sleep(2 * time.Millisecond)
				c.Send(0, i, buf)
			}
		}
		ptp, _ := c.DrainTrace()
		for _, ev := range ptp {
			if ev.Kind == KindRecv {
				recvs[c.Rank()] = append(recvs[c.Rank()], ev)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if len(recvs[r]) != rounds {
			t.Fatalf("rank %d drained %d receive events, want %d", r, len(recvs[r]), rounds)
		}
		var traced, counted int64
		for _, ev := range recvs[r] {
			if ev.DoneNs-ev.StartNs < int64(time.Millisecond) || ev.StartNs < ev.PostNs {
				t.Fatalf("rank %d: a late-sent receive traced as %+v", r, ev)
			}
			traced += ev.DoneNs - ev.StartNs
		}
		for _, ns := range w.WaitByPeer(r) {
			counted += ns
		}
		if traced != counted {
			t.Fatalf("rank %d: traced receives waited %d ns, the wait counters %d ns", r, traced, counted)
		}
		if got := w.RankStats(r).WaitSec; got != float64(counted)/1e9 {
			t.Fatalf("rank %d: WaitSec %v, want the per-peer sum %v", r, got, float64(counted)/1e9)
		}
	}
}

// TestWaitByPeerAccumulates checks the always-on per-neighbour wait
// counters: a receiver blocked on a slow sender charges that peer's slot
// even with no trace armed.
func TestWaitByPeerAccumulates(t *testing.T) {
	w := NewWorld(2)
	if err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			c.Send(1, 3, []float64{1})
			return
		}
		buf := make([]float64, 1)
		c.Recv(0, 3, buf)
	}); err != nil {
		t.Fatal(err)
	}
	byPeer := w.WaitByPeer(1)
	if len(byPeer) != 2 {
		t.Fatalf("WaitByPeer length %d, want world size", len(byPeer))
	}
	if byPeer[0] < int64(10*time.Millisecond) {
		t.Fatalf("rank 1 waited %d ns on rank 0, want >= 10ms", byPeer[0])
	}
	if byPeer[1] != 0 {
		t.Fatalf("rank 1 charged %d ns against itself", byPeer[1])
	}
}

// TestTraceEnvelopes exercises the armed event trace end to end: send and
// receive events carry the step/stage context of both sides, a blocked
// receive exposes the late sender through SendPostNs, and nested helper
// collectives (Barrier, AllreduceOrdered) record exactly one event with
// matching sequence numbers across ranks, its interval the one charged to
// the rank's collective time.
func TestTraceEnvelopes(t *testing.T) {
	w := NewWorld(2)
	ptps := make([][]PtPEvent, 2)
	colls := make([][]CollEvent, 2)
	if err := w.Run(func(c *Comm) {
		c.SetStepContext(7, 0)
		c.ArmTrace(true)
		if c.Rank() == 0 {
			c.SetStepContext(7, 2)
			time.Sleep(15 * time.Millisecond)
			c.Send(1, 11, []float64{1, 2})
		} else {
			buf := make([]float64, 2)
			c.Recv(0, 11, buf)
		}
		c.Allreduce(Sum, []float64{1})
		c.Barrier()
		if err := c.AllreduceOrdered([]float64{1}, func(dst, src []float64) { dst[0] += src[0] }); err != nil {
			t.Error(err)
		}
		p, cl := c.DrainTrace()
		ptps[c.Rank()], colls[c.Rank()] = p, cl
	}); err != nil {
		t.Fatal(err)
	}

	// Rank 0: one send event with its own stage context.
	if len(ptps[0]) != 1 || ptps[0][0].Kind != KindSend {
		t.Fatalf("rank 0 events = %+v, want one send", ptps[0])
	}
	send := ptps[0][0]
	if send.Peer != 1 || send.Tag != 11 || send.Bytes != 16 || send.Step != 7 || send.Stage != 2 {
		t.Fatalf("send envelope wrong: %+v", send)
	}

	// Rank 1: one recv event that saw the sender arrive late.
	if len(ptps[1]) != 1 || ptps[1][0].Kind != KindRecv {
		t.Fatalf("rank 1 events = %+v, want one recv", ptps[1])
	}
	recv := ptps[1][0]
	if recv.Peer != 0 || recv.Tag != 11 || recv.Bytes != 16 || recv.Step != 7 || recv.Stage != 0 {
		t.Fatalf("recv envelope wrong: %+v", recv)
	}
	if recv.SendStep != 7 || recv.SendStage != 2 {
		t.Fatalf("recv lost the sender's context: %+v", recv)
	}
	if recv.SendPostNs != send.PostNs {
		t.Fatalf("send post mismatch: recv saw %d, sender recorded %d", recv.SendPostNs, send.PostNs)
	}
	// Late sender: the message was posted after the receiver began waiting.
	if recv.SendPostNs <= recv.StartNs {
		t.Fatalf("want a late-sender pattern: sendPost=%d waitStart=%d", recv.SendPostNs, recv.StartNs)
	}
	if recv.DoneNs < recv.SendPostNs || recv.StartNs < recv.PostNs {
		t.Fatalf("recv timestamps out of order: %+v", recv)
	}

	// Collectives: 3 top-level calls → 3 events, nested helpers suppressed,
	// sequence numbers aligned across ranks; their intervals are the rank's
	// collective time.
	wantKinds := []string{KindAllreduce, KindBarrier, KindAllreduceOrdered}
	for r := 0; r < 2; r++ {
		if len(colls[r]) != len(wantKinds) {
			t.Fatalf("rank %d collective events = %+v, want %d", r, colls[r], len(wantKinds))
		}
		var collNs int64
		for i, ev := range colls[r] {
			if ev.Kind != wantKinds[i] || ev.Seq != i {
				t.Fatalf("rank %d event %d = %+v, want kind %s seq %d", r, i, ev, wantKinds[i], i)
			}
			if ev.ExitNs < ev.EnterNs || ev.Step != 7 {
				t.Fatalf("rank %d event %d timestamps/context wrong: %+v", r, i, ev)
			}
			collNs += ev.ExitNs - ev.EnterNs
		}
		if got := w.RankStats(r).CollSec; got != float64(collNs)/1e9 {
			t.Fatalf("rank %d: CollSec %v, traced collectives %v", r, got, float64(collNs)/1e9)
		}
	}

	// Draining again returns nothing.
	if p, cl := func() ([]PtPEvent, []CollEvent) {
		var c2 Comm
		return c2.DrainTrace()
	}(); len(p) != 0 || len(cl) != 0 {
		t.Fatal("drained trace must be empty")
	}
}
