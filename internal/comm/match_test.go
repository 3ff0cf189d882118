package comm

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
)

// postOrders are the two ways a message can meet its receive: the receive
// is already in the posted queue when the send arrives, or the send is
// already in the unexpected queue when the receive is posted.
var postOrders = []struct {
	name      string
	recvFirst bool
}{{"recv-first", true}, {"send-first", false}}

// ordered runs rank 0's send and rank 1's post in the given order and
// checks, between two Barriers, that the first side filled its queue: k
// posted receives, or k unexpected messages.
func ordered(t *testing.T, c *Comm, recvFirst bool, k int, send, post func()) {
	first, second := post, send
	firstRank := 1
	if !recvFirst {
		first, second, firstRank = send, post, 0
	}
	if c.Rank() == firstRank {
		first()
	}
	c.Barrier()
	if c.Rank() == 1 {
		box := c.world.boxes[1]
		box.mu.Lock()
		queued, what := len(box.msgs), "unexpected messages"
		if recvFirst {
			queued, what = len(box.posted), "posted receives"
		}
		box.mu.Unlock()
		if queued != k {
			t.Errorf("%d %s queued before the other side ran, want %d", queued, what, k)
		}
	}
	c.Barrier()
	if c.Rank() != firstRank {
		second()
	}
}

// TestMatchBothOrders pins the matching table: whichever side posts first,
// same-tag messages match receives in posting order, a length mismatch
// panics on the receiving rank and reaches World.Run as that rank's error,
// a send buffer may be reused as soon as Isend returns, and a payload
// RecvAny returned is not touched by later traffic.
func TestMatchBothOrders(t *testing.T) {
	for _, o := range postOrders {
		t.Run("fifo/"+o.name, func(t *testing.T) {
			const k = 5
			if err := NewWorld(2).Run(func(c *Comm) {
				bufs := make([][]float64, k)
				reqs := make([]*Request, k)
				ordered(t, c, o.recvFirst, k, func() {
					for i := 0; i < k; i++ {
						c.Isend(1, 3, []float64{float64(i), float64(10 * i)})
					}
				}, func() {
					for i := range reqs {
						bufs[i] = make([]float64, 2)
						reqs[i] = c.Irecv(0, 3, bufs[i])
					}
				})
				if c.Rank() == 1 {
					for i := k - 1; i >= 0; i-- { // wait out of order
						reqs[i].Wait()
						if bufs[i][0] != float64(i) || bufs[i][1] != float64(10*i) {
							t.Errorf("receive %d got %v", i, bufs[i])
						}
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})

		t.Run("truncation/"+o.name, func(t *testing.T) {
			err := NewWorld(2).Run(func(c *Comm) {
				var req *Request
				ordered(t, c, o.recvFirst, 1, func() {
					c.Isend(1, 9, []float64{1, 2, 3, 4})
				}, func() {
					req = c.Irecv(0, 9, make([]float64, 3))
				})
				if c.Rank() == 1 {
					req.Wait()
					t.Error("Wait returned on a truncated message")
				}
			})
			want := "comm: rank 1 panicked: comm: message truncation: got 4, posted 3 (src 0 tag 9)"
			if err == nil || err.Error() != want {
				t.Fatalf("Run = %v, want %q", err, want)
			}
		})

		t.Run("reuse/"+o.name, func(t *testing.T) {
			if err := NewWorld(2).Run(func(c *Comm) {
				a, b := make([]float64, 3), make([]float64, 3)
				var ra, rb *Request
				ordered(t, c, o.recvFirst, 2, func() {
					buf := []float64{1, 2, 3}
					c.Isend(1, 4, buf)
					buf[0], buf[2] = -1, -3
					c.Isend(1, 4, buf)
					buf[1] = math.NaN()
				}, func() {
					ra, rb = c.Irecv(0, 4, a), c.Irecv(0, 4, b)
				})
				if c.Rank() == 1 {
					WaitAll(ra, rb)
					if !slices.Equal(a, []float64{1, 2, 3}) || !slices.Equal(b, []float64{-1, 2, -3}) {
						t.Errorf("received %v then %v, want the buffer as it was at each Isend", a, b)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})

		t.Run("recvany/"+o.name, func(t *testing.T) {
			if err := NewWorld(2).Run(func(c *Comm) {
				// Put a buffer the size of the RecvAny payload on the free
				// list, then let the RecvAny message arrive in it.
				if c.Rank() == 0 {
					c.Send(1, 1, []float64{10, 11, 12})
				}
				c.Barrier()
				if c.Rank() == 1 {
					c.Recv(0, 1, make([]float64, 3))
				}
				c.Barrier()
				if c.Rank() == 0 {
					c.Send(1, 2, []float64{20, 21, 22})
				}
				var p []float64
				if c.Rank() == 1 {
					_, _, p = c.RecvAny([]int{2})
					box := c.world.boxes[1]
					box.mu.Lock()
					for _, b := range box.free {
						if &b[:1][0] == &p[0] {
							t.Error("the RecvAny payload is on the free list")
						}
					}
					box.mu.Unlock()
				}
				// Later traffic of the same size, in the order under test.
				const k = 3
				reqs := make([]*Request, k)
				ordered(t, c, o.recvFirst, k, func() {
					for i := 0; i < k; i++ {
						c.Isend(1, 1, []float64{-1, -1, -1})
					}
				}, func() {
					for i := range reqs {
						reqs[i] = c.Irecv(0, 1, make([]float64, 3))
					}
				})
				if c.Rank() == 1 {
					WaitAll(reqs...)
					if !slices.Equal(p, []float64{20, 21, 22}) {
						t.Errorf("RecvAny payload became %v", p)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestExchangeAllocs: in the steady state a 2-rank exchange of a 64 KiB
// slab allocates next to nothing — each message is copied straight into the
// peer's posted receive or into a recycled buffer — where a copy made per
// message would allocate the whole payload every round.
func TestExchangeAllocs(t *testing.T) {
	const n, warm, rounds = 8192, 10, 200
	var perRound uint64
	if err := NewWorld(2).Run(func(c *Comm) {
		peer := 1 - c.Rank()
		send, recv := make([]float64, n), make([]float64, n)
		exchange := func(i int) {
			send[0] = float64(i)
			r := c.Irecv(peer, 0, recv)
			c.Isend(peer, 0, send)
			r.Wait()
			if recv[0] != float64(i) {
				panic(fmt.Sprintf("round %d received round %v", i, recv[0]))
			}
		}
		for i := 0; i < warm; i++ {
			exchange(i)
		}
		c.Barrier()
		before := allocatedBytes()
		for i := warm; i < warm+rounds; i++ {
			exchange(i)
		}
		c.Barrier()
		if c.Rank() == 0 {
			perRound = (allocatedBytes() - before) / rounds
		}
	}); err != nil {
		t.Fatal(err)
	}
	if perRound >= 1024 {
		t.Fatalf("a round of 64 KiB exchange allocated %d bytes, want < 1 KiB", perRound)
	}
}

// FuzzMatch drives two ranks through a schedule of Isend/Irecv/Wait the
// bytes choose and checks every payload. Each three bytes make a message:
// the first picks the sender, one of three tags, whether the message ends a
// round, whether each rank posts it before its previous operation's
// counterpart and whether a rank yields after it; the second is its length;
// the third orders the receiver's Waits. Within a round each rank posts its
// sends and receives interleaved, in message order per kind, then waits on
// its receives in the byte-chosen order — a rank posts all of a round's
// sends before it waits, so no schedule deadlocks. Every payload names its
// message, so a receive that got another message of its (source, tag) —
// overtaking — or a send buffer the sender overwrote is caught, and at the
// end both mailboxes must be empty and the counters exact.
func FuzzMatch(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 4, 1, 2, 4, 2, 3, 4, 3})
	f.Add([]byte{0x08, 200, 7, 0x31, 3, 1, 0x19, 0, 5, 0x02, 64, 0, 0x23, 64, 2, 0x8a, 9, 9})
	f.Add([]byte{0x30, 16, 3, 0x30, 16, 2, 0x30, 16, 1, 0x31, 16, 0, 0x31, 16, 4, 0x89, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		type msg struct {
			src, tag, n int
			ctl, order  byte
		}
		var rounds [][]int
		var msgs []msg
		var cur []int
		for i := 0; i+3 <= len(data) && len(msgs) < 64; i += 3 {
			m := msg{src: int(data[i] & 1), tag: int(data[i]>>1&3) % 3, n: int(data[i+1]),
				ctl: data[i], order: data[i+2]}
			cur = append(cur, len(msgs))
			msgs = append(msgs, m)
			if m.ctl&0x08 != 0 || len(cur) == 8 {
				rounds, cur = append(rounds, cur), nil
			}
		}
		if len(cur) > 0 {
			rounds = append(rounds, cur)
		}
		payload := func(i, j int) float64 { return float64(i*1000 + j) }

		w := NewWorld(2)
		if err := w.Run(func(c *Comm) {
			me := c.Rank()
			scratch := make([]float64, 256)
			for _, round := range rounds {
				var sends, recvs []int
				for _, i := range round {
					if msgs[i].src == me {
						sends = append(sends, i)
					} else {
						recvs = append(recvs, i)
					}
				}
				bufs := map[int][]float64{}
				reqs := map[int]*Request{}
				for len(sends)+len(recvs) > 0 {
					var i int
					if len(recvs) == 0 || len(sends) > 0 && msgs[sends[0]].ctl>>(4+me)&1 != 0 {
						i, sends = sends[0], sends[1:]
						m := msgs[i]
						for j := 0; j < m.n; j++ {
							scratch[j] = payload(i, j)
						}
						c.Isend(1-me, m.tag, scratch[:m.n])
						for j := range scratch[:m.n] {
							scratch[j] = math.NaN()
						}
					} else {
						i, recvs = recvs[0], recvs[1:]
						m := msgs[i]
						bufs[i] = make([]float64, m.n)
						reqs[i] = c.Irecv(m.src, m.tag, bufs[i])
					}
					if msgs[i].ctl&0x80 != 0 {
						runtime.Gosched()
					}
				}
				waits := make([]int, 0, len(reqs))
				for i := range reqs {
					waits = append(waits, i)
				}
				slices.SortFunc(waits, func(a, b int) int {
					if d := int(msgs[a].order) - int(msgs[b].order); d != 0 {
						return d
					}
					return a - b
				})
				for _, i := range waits {
					reqs[i].Wait()
					for j, v := range bufs[i] {
						if v != payload(i, j) {
							panic(fmt.Sprintf("message %d (src %d tag %d len %d) element %d = %v, want %v",
								i, msgs[i].src, msgs[i].tag, msgs[i].n, j, v, payload(i, j)))
						}
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}

		for r, box := range w.boxes {
			if len(box.msgs) != 0 || len(box.posted) != 0 || len(box.free) > maxFree {
				t.Fatalf("rank %d mailbox after the schedule: %d unexpected, %d posted, %d free",
					r, len(box.msgs), len(box.posted), len(box.free))
			}
		}
		for r := 0; r < 2; r++ {
			var n, bytes int64
			for _, m := range msgs {
				if m.src == r {
					n++
					bytes += int64(8 * m.n)
				}
			}
			s := w.RankStats(r)
			if s.MsgsSent != n || s.BytesSent != bytes || w.RankStats(1-r).MsgsRecv != n || w.RankStats(1-r).BytesRecv != bytes {
				t.Fatalf("rank %d sent %d messages (%d B), stats %+v, peer %+v", r, n, bytes, s, w.RankStats(1-r))
			}
		}
	})
}
