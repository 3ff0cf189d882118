package solver

import (
	"runtime/metrics"
	"testing"
	"time"
)

// heapAllocated is the process's cumulative heap allocation in bytes.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestExchangeHalosAllocs: once warm, a 2×1×1 exchange of the conserved
// group — two ~50 KiB slabs each way per rank — allocates under 1 KiB over
// both ranks: the transport copies each message into the peer's posted
// receive or a recycled buffer and the solver's slab buffers and pool items
// are bound once, so what is left is bookkeeping (the receive requests, the
// pool's per-run state).
func TestExchangeHalosAllocs(t *testing.T) {
	const warm, rounds = 6, 50
	var perRound uint64
	if err := RunParallel(reactiveConfig(), [3]int{2, 1, 1}, func(b *Block) {
		for i := 0; i < warm; i++ {
			// In the first two rounds one rank is late, so both messages
			// of a round reach its mailbox before its receives are posted
			// and each free list ends up holding the two buffers the
			// steady state can need at once.
			if i == b.Rank() {
				time.Sleep(5 * time.Millisecond)
			}
			b.exchangeHalos(b.haloQ, tagConserved)
		}
		c := b.cart.Comm
		c.Barrier()
		before := heapAllocated()
		for i := 0; i < rounds; i++ {
			b.exchangeHalos(b.haloQ, tagConserved)
		}
		c.Barrier()
		if b.Rank() == 0 {
			perRound = (heapAllocated() - before) / rounds
		}
	}); err != nil {
		t.Fatal(err)
	}
	if perRound >= 1024 {
		t.Fatalf("a conserved-group halo exchange allocated %d bytes per round, want < 1 KiB", perRound)
	}
}
