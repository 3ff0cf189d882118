package pario

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/s3dgo/s3d/internal/comm"
)

// runCached executes the S3D-I/O checkpoint pattern through the live
// caching protocol, one rank per process, and returns the resulting file
// plus each rank's counters.
type cacheStats struct{ LocalHits, RemoteForwards, Evictions int }

func runCached(t *testing.T, k Kernel, cfg CacheConfig) (*SharedFile, []cacheStats) {
	t.Helper()
	cls := make([]*CacheClient, k.NumProcs())
	file, err := k.writeThrough(func(c *comm.Comm, f *SharedFile) client {
		cls[c.Rank()] = NewCacheClient(c, f, cfg)
		return cls[c.Rank()]
	})
	if err != nil {
		t.Fatal(err)
	}
	statsOut := make([]cacheStats, len(cls))
	for r, cl := range cls {
		statsOut[r] = cacheStats{cl.LocalHits, cl.RemoteForwards, cl.Evictions}
	}
	return file, statsOut
}

func TestCacheStatsTelemetry(t *testing.T) {
	// Single rank: every page access is local, the first touch of each page
	// is a miss, re-reads are hits.
	const pageB = 512
	file := NewSharedFile(4 * pageB)
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) {
		cl := NewCacheClient(c, file, CacheConfig{PageBytes: pageB})
		buf := make([]byte, pageB)
		for pass := 0; pass < 3; pass++ {
			for pg := int64(0); pg < 4; pg++ {
				if err := cl.Read(pg*pageB, buf); err != nil {
					panic(err)
				}
			}
		}
		if cl.LocalHits != 12 || cl.Misses != 4 || cl.RemoteForwards != 0 {
			panic(fmt.Sprintf("local=%d misses=%d forwards=%d", cl.LocalHits, cl.Misses, cl.RemoteForwards))
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheProtocolProducesCanonicalImage(t *testing.T) {
	k := Kernel{NxP: 6, NyP: 5, NzP: 4, Px: 2, Py: 2, Pz: 2}
	file, _ := runCached(t, k, CacheConfig{PageBytes: 256})
	want := k.MaterializeDirect()
	if !bytes.Equal(file.Bytes(), want) {
		t.Fatal("cached write path diverges from canonical image")
	}
}

func TestCacheProtocolWithEviction(t *testing.T) {
	// A tiny cache bound forces LRU evictions mid-run; the image must still
	// come out exact.
	k := Kernel{NxP: 8, NyP: 4, NzP: 3, Px: 2, Py: 1, Pz: 2}
	file, stats := runCached(t, k, CacheConfig{PageBytes: 512, MaxBytes: 1024})
	want := k.MaterializeDirect()
	if !bytes.Equal(file.Bytes(), want) {
		t.Fatal("eviction corrupted the image")
	}
	var evictions int
	for _, s := range stats {
		evictions += s.Evictions
	}
	if evictions == 0 {
		t.Fatal("expected evictions under a 1 kB bound")
	}
}

func TestCacheSingleOwnerPerPage(t *testing.T) {
	// Two ranks writing the same page must route through one owner: the
	// §5.1 invariant "at most a single cached copy of file data".
	const pageB = 1024
	file := NewSharedFile(4 * pageB)
	w := comm.NewWorld(2)
	forwards := make([]int, 2)
	err := w.Run(func(c *comm.Comm) {
		cl := NewCacheClient(c, file, CacheConfig{PageBytes: pageB})
		// Both ranks write disjoint halves of every page.
		half := int64(pageB / 2)
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, int(half))
		for pg := int64(0); pg < 4; pg++ {
			off := pg*pageB + int64(c.Rank())*half
			if err := cl.Write(off, buf); err != nil {
				panic(err)
			}
		}
		cl.Close()
		forwards[c.Rank()] = cl.RemoteForwards
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every page has exactly one owner, so exactly one of each pair of
	// half-writes was remote: 4 pages → 4 total forwards.
	if got := forwards[0] + forwards[1]; got != 4 {
		t.Fatalf("remote forwards = %d, want 4", got)
	}
	// File correctness.
	img := file.Bytes()
	for pg := 0; pg < 4; pg++ {
		if img[pg*pageB] != 1 || img[pg*pageB+pageB/2] != 2 {
			t.Fatalf("page %d content wrong: %d %d", pg, img[pg*pageB], img[pg*pageB+pageB/2])
		}
	}
}

func TestCacheReadAfterWrite(t *testing.T) {
	// Figure 6's read flow: a rank reading data cached on another rank gets
	// it via owner forwarding, without touching the file system again.
	const pageB = 512
	file := NewSharedFile(2 * pageB)
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) {
		cl := NewCacheClient(c, file, CacheConfig{PageBytes: pageB})
		if c.Rank() == 0 {
			payload := bytes.Repeat([]byte{0xAB}, 100)
			if err := cl.Write(50, payload); err != nil {
				panic(err)
			}
		}
		c.Barrier()
		if c.Rank() == 1 {
			got := make([]byte, 100)
			if err := cl.Read(50, got); err != nil {
				panic(err)
			}
			for _, b := range got {
				if b != 0xAB {
					panic("read-after-write returned stale data")
				}
			}
			if cl.RemoteForwards == 0 {
				panic("read did not forward to the page owner")
			}
		}
		c.Barrier()
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheReducesFileSystemAccesses(t *testing.T) {
	// Many small writes through the cache must reach the file system as few
	// page-sized flushes (the point of §5.1).
	const pageB = 1024
	file := NewSharedFile(4 * pageB)
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) {
		cl := NewCacheClient(c, file, CacheConfig{PageBytes: pageB})
		one := []byte{byte(c.Rank())}
		for i := 0; i < 200; i++ {
			off := int64((i*17 + c.Rank()) % int(file.Size()))
			if err := cl.Write(off, one); err != nil {
				panic(err)
			}
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	_, writes := file.Accesses()
	if writes > 8 { // ≤ 4 pages, flushed once per owner (+ slack)
		t.Fatalf("file system writes = %d, want page-granular flushes", writes)
	}
}

func TestCacheBoundsChecked(t *testing.T) {
	file := NewSharedFile(100)
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) {
		cl := NewCacheClient(c, file, CacheConfig{PageBytes: 64})
		if err := cl.Write(90, make([]byte, 20)); err == nil {
			panic("expected out-of-range write error")
		}
		if err := cl.Read(-1, make([]byte, 2)); err == nil {
			panic("expected out-of-range read error")
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheS3DPatternManyRanks(t *testing.T) {
	// The full checkpoint pattern with 8 concurrent ranks and small pages.
	k := Kernel{NxP: 5, NyP: 4, NzP: 3, Px: 2, Py: 2, Pz: 2}
	file, stats := runCached(t, k, CacheConfig{PageBytes: 200})
	if !bytes.Equal(file.Bytes(), k.MaterializeDirect()) {
		t.Fatal("8-rank cached image diverges")
	}
	var localHits int
	for _, s := range stats {
		localHits += s.LocalHits
	}
	if localHits == 0 {
		t.Fatal("no local cache hits — first-toucher ownership broken")
	}
}
