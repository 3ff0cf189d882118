package comm

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPingPong(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
			buf := make([]float64, 3)
			c.Recv(1, 8, buf)
			if buf[0] != 2 || buf[2] != 6 {
				panic("bad echo")
			}
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			for i := range buf {
				buf[i] *= 2
			}
			c.Send(0, 8, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingOverlap(t *testing.T) {
	// Post all receives, then all sends, then wait — the S3D ghost-exchange
	// pattern. Must not deadlock.
	const n = 8
	w := NewWorld(n)
	err := w.Run(func(c *Comm) {
		left := (c.Rank() + n - 1) % n
		right := (c.Rank() + 1) % n
		rbufL := make([]float64, 4)
		rbufR := make([]float64, 4)
		r1 := c.Irecv(left, 1, rbufL)
		r2 := c.Irecv(right, 2, rbufR)
		s1 := c.Isend(right, 1, []float64{float64(c.Rank()), 0, 0, 0})
		s2 := c.Isend(left, 2, []float64{float64(c.Rank()), 1, 1, 1})
		WaitAll(r1, r2, s1, s2)
		if int(rbufL[0]) != left || int(rbufR[0]) != right {
			panic("wrong neighbour data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Send tag 5 then tag 4; receiver asks for 4 first.
			c.Send(1, 5, []float64{5})
			c.Send(1, 4, []float64{4})
		} else {
			b := make([]float64, 1)
			c.Recv(0, 4, b)
			if b[0] != 4 {
				panic("tag matching failed")
			}
			c.Recv(0, 5, b)
			if b[0] != 5 {
				panic("tag matching failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	// Messages with the same (src, tag) must match in send order.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			b := make([]float64, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 3, b)
				if int(b[0]) != i {
					panic("out-of-order delivery")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReusable(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Isend(1, 0, buf)
			buf[0] = -1 // must not corrupt the in-flight message
			c.Barrier()
		} else {
			b := make([]float64, 1)
			c.Recv(0, 0, b)
			if b[0] != 42 {
				panic("send buffer not copied")
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) {
			v := []float64{float64(c.Rank() + 1), 1}
			c.Allreduce(Sum, v)
			want := float64(n*(n+1)) / 2
			if v[0] != want || v[1] != float64(n) {
				panic("bad sum")
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreduceMinMax(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) {
		v := []float64{float64(c.Rank())}
		c.Allreduce(Min, v)
		if v[0] != 0 {
			panic("bad min")
		}
		v[0] = float64(c.Rank())
		c.Allreduce(Max, v)
		if v[0] != 4 {
			panic("bad max")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectives(t *testing.T) {
	// Hammer consecutive collectives to exercise the two-phase reset.
	w := NewWorld(7)
	err := w.Run(func(c *Comm) {
		for iter := 0; iter < 200; iter++ {
			v := []float64{1}
			c.Allreduce(Sum, v)
			if v[0] != 7 {
				panic("collective raced")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsPanicAsError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not hang on a collective with a dead partner in this
		// test; it does plain work only.
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestByteAccounting(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100)) // 800 bytes
		} else {
			c.Recv(0, 0, make([]float64, 100))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.RankStats(0); s.BytesSent != 800 || s.MsgsSent != 1 {
		t.Fatalf("rank 0 sent: bytes=%d msgs=%d, want 800 and 1", s.BytesSent, s.MsgsSent)
	}
	if s := w.RankStats(1); s.BytesRecv != 800 || s.MsgsRecv != 1 || s.BytesSent != 0 {
		t.Fatalf("rank 1: %+v, want 800 bytes in one message received and none sent", s)
	}
}

func TestCounters2x2Exchange(t *testing.T) {
	// Telemetry counters across a realistic exchange on a 2×2×1 topology:
	// every rank swaps one fixed-size message with its x and y neighbours
	// (periodic, so every rank has exactly two distinct neighbours), then
	// joins one Allreduce. Byte and message counts must come out exact.
	const msgLen = 250 // 2000 bytes per message
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		ct, err := NewCart(c, [3]int{2, 2, 1}, [3]bool{true, true, false})
		if err != nil {
			panic(err)
		}
		var reqs []*Request
		for axis := 0; axis < 2; axis++ {
			nb := ct.Neighbor(axis, +1) // with dims 2, +1 and -1 coincide
			buf := make([]float64, msgLen)
			reqs = append(reqs, c.Irecv(nb, axis, make([]float64, msgLen)))
			reqs = append(reqs, c.Isend(nb, axis, buf))
		}
		WaitAll(reqs...)
		v := []float64{float64(c.Rank())}
		c.Allreduce(Sum, v)
		if v[0] != 6 { // 0+1+2+3
			panic("bad allreduce")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		s := w.RankStats(r)
		// Two point-to-point sends of 2000 bytes plus one Allreduce charged
		// at 16 bytes per element (2·8·len, the tree-allreduce model).
		if s.MsgsSent != 2 || s.BytesSent != 2*8*msgLen+16 {
			t.Fatalf("rank %d sent: msgs=%d bytes=%d", r, s.MsgsSent, s.BytesSent)
		}
		if s.MsgsRecv != 2 || s.BytesRecv != 2*8*msgLen {
			t.Fatalf("rank %d recv: msgs=%d bytes=%d", r, s.MsgsRecv, s.BytesRecv)
		}
		if s.Allreduces != 1 || s.Barriers != 0 {
			t.Fatalf("rank %d collectives: %+v", r, s)
		}
		if s.WaitSec < 0 || s.CollSec <= 0 {
			t.Fatalf("rank %d blocked-time: wait=%g coll=%g", r, s.WaitSec, s.CollSec)
		}
	}
}

func TestBarrierCountsOnce(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) { c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		s := w.RankStats(r)
		if s.Barriers != 1 || s.Allreduces != 1 {
			t.Fatalf("rank %d: barriers=%d allreduces=%d", r, s.Barriers, s.Allreduces)
		}
	}
}

func TestCartTopology(t *testing.T) {
	w := NewWorld(24)
	var bad atomic.Int64
	err := w.Run(func(c *Comm) {
		ct, err := NewCart(c, [3]int{4, 3, 2}, [3]bool{false, true, false})
		if err != nil {
			panic(err)
		}
		co := ct.Coords()
		// Round trip.
		if ct.RankOf(co) != c.Rank() {
			bad.Add(1)
		}
		// Periodic wrap in y.
		if co[1] == 0 {
			want := ct.RankOf([3]int{co[0], 2, co[2]})
			if ct.Neighbor(1, -1) != want {
				bad.Add(1)
			}
		}
		// Non-periodic edge in x.
		if co[0] == 0 && ct.Neighbor(0, -1) != -1 {
			bad.Add(1)
		}
		if co[0] == 0 != ct.OnLowBoundary(0) {
			bad.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d topology inconsistencies", bad.Load())
	}
}

func TestCartDimsMismatch(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		if _, err := NewCart(c, [3]int{3, 1, 1}, [3]bool{}); err == nil {
			panic("expected dims mismatch error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecompose1DProperty(t *testing.T) {
	prop := func(nRaw, partsRaw uint8) bool {
		n := int(nRaw)%200 + 1
		parts := int(partsRaw)%16 + 1
		if parts > n {
			parts = n
		}
		total := 0
		prevEnd := 0
		for p := 0; p < parts; p++ {
			off, cnt := Decompose1D(n, parts, p)
			if off != prevEnd || cnt < n/parts || cnt > n/parts+1 {
				return false
			}
			prevEnd = off + cnt
			total += cnt
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceFloatAccuracy(t *testing.T) {
	// Reduction result must equal a serial sum of the same values exactly
	// (same association order is not guaranteed; accept tiny tolerance).
	n := 16
	w := NewWorld(n)
	var result atomic.Value
	err := w.Run(func(c *Comm) {
		v := []float64{math.Sqrt(float64(c.Rank() + 1))}
		c.Allreduce(Sum, v)
		result.Store(v[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 1; i <= n; i++ {
		want += math.Sqrt(float64(i))
	}
	if math.Abs(result.Load().(float64)-want) > 1e-12 {
		t.Fatalf("allreduce = %v, want %v", result.Load(), want)
	}
}

func BenchmarkGhostExchange8Ranks(b *testing.B) {
	// The characteristic S3D message: ~80 kB (paper §2.6) to each of up to
	// six neighbours.
	const msg = 10000 // 80 kB of float64
	w := NewWorld(8)
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		err := w.Run(func(c *Comm) {
			ct, _ := NewCart(c, [3]int{2, 2, 2}, [3]bool{true, true, true})
			buf := make([]float64, msg)
			recv := make([]float64, msg)
			var reqs []*Request
			for axis := 0; axis < 3; axis++ {
				for _, dir := range []int{-1, 1} {
					nb := ct.Neighbor(axis, dir)
					// Receive tag encodes my side; the sender targets the
					// receiver's opposite side.
					reqs = append(reqs, c.Irecv(nb, axis*2+(dir+1)/2, recv))
					reqs = append(reqs, c.Isend(nb, axis*2+(1-dir)/2, buf))
				}
			}
			WaitAll(reqs...)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
