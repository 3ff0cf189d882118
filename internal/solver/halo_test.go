package solver

import (
	"runtime"
	"testing"
)

// heapAllocated is the process's cumulative heap allocation in bytes.
// ReadMemStats flushes every P's allocation cache first, so the count is
// exact at the call; /gc/heap/allocs:bytes counts a small object only once
// its cached span is refilled, which lets allocations made before a
// measurement land inside it.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
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
			b.exchangeHalos(b.haloQ, tagConserved)
		}
		// When one rank runs a round ahead, its two slabs of the next
		// round reach the peer's mailbox before the peer posts their
		// receives. Queue two slab-sized messages in each mailbox before
		// any receive is posted for them, so each free list holds the two
		// buffers the steady state can need at once however the ranks are
		// scheduled.
		c := b.cart.Comm
		const tagSeed = 1000
		slab := b.haloBuf[2][:cap(b.haloBuf[2])]
		peer := 1 - b.Rank()
		c.Send(peer, tagSeed, slab)
		c.Send(peer, tagSeed, slab)
		c.Barrier()
		c.Recv(peer, tagSeed, slab)
		c.Recv(peer, tagSeed, slab)
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
