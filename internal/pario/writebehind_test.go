package pario

import (
	"bytes"
	"testing"

	"github.com/s3dgo/s3d/internal/comm"
)

func runWriteBehind(t *testing.T, k Kernel, pageBytes, subBytes int64) (*SharedFile, []int) {
	t.Helper()
	cls := make([]*WriteBehindClient, k.NumProcs())
	file, err := k.writeThrough(func(c *comm.Comm, f *SharedFile) client {
		cls[c.Rank()] = NewWriteBehindClient(c, f, pageBytes, subBytes)
		return cls[c.Rank()]
	})
	if err != nil {
		t.Fatal(err)
	}
	flushes := make([]int, len(cls))
	for r, cl := range cls {
		flushes[r] = cl.Flushes
	}
	return file, flushes
}

func TestWriteBehindProtocolCanonicalImage(t *testing.T) {
	k := Kernel{NxP: 6, NyP: 5, NzP: 4, Px: 2, Py: 2, Pz: 2}
	file, _ := runWriteBehind(t, k, 256, 128)
	if !bytes.Equal(file.Bytes(), k.MaterializeDirect()) {
		t.Fatal("write-behind protocol diverges from canonical image")
	}
}

func TestWriteBehindSmallSubBuffersForceMidRunFlushes(t *testing.T) {
	k := Kernel{NxP: 8, NyP: 4, NzP: 3, Px: 2, Py: 1, Pz: 2}
	file, flushes := runWriteBehind(t, k, 512, 64)
	if !bytes.Equal(file.Bytes(), k.MaterializeDirect()) {
		t.Fatal("image wrong under small sub-buffers")
	}
	total := 0
	for _, f := range flushes {
		total += f
	}
	// Remote data ≫ 64 B sub-buffers → many flushes.
	if total < 10 {
		t.Fatalf("flushes = %d, expected many with 64-byte sub-buffers", total)
	}
}

func TestWriteBehindRoundRobinOwnership(t *testing.T) {
	// A rank writing only into pages it owns must never message anyone.
	const pageB = 256
	file := NewSharedFile(4 * pageB)
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) {
		cl := NewWriteBehindClient(c, file, pageB, 128)
		payload := bytes.Repeat([]byte{byte(10 + c.Rank())}, pageB)
		// Rank r owns pages r and r+2 (page % 2 == r).
		for _, pg := range []int64{int64(c.Rank()), int64(c.Rank()) + 2} {
			if err := cl.Write(pg*pageB, payload); err != nil {
				panic(err)
			}
		}
		if cl.Flushes != 0 {
			panic("owner-local writes flushed remotely")
		}
		if cl.LocalAppends != 2 {
			panic("local appends miscounted")
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	img := file.Bytes()
	for pg := 0; pg < 4; pg++ {
		want := byte(10 + pg%2)
		if img[pg*pageB] != want || img[(pg+1)*pageB-1] != want {
			t.Fatalf("page %d owner content wrong: %d", pg, img[pg*pageB])
		}
	}
}

func TestWriteBehindPartialFinalPage(t *testing.T) {
	// File not a multiple of the page size: the tail page must flush only
	// its high-water range.
	file := NewSharedFile(300)
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) {
		cl := NewWriteBehindClient(c, file, 256, 64)
		if c.Rank() == 0 {
			if err := cl.Write(0, bytes.Repeat([]byte{1}, 256)); err != nil {
				panic(err)
			}
		} else {
			if err := cl.Write(256, bytes.Repeat([]byte{2}, 44)); err != nil {
				panic(err)
			}
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	img := file.Bytes()
	if img[0] != 1 || img[255] != 1 || img[256] != 2 || img[299] != 2 {
		t.Fatalf("partial page content wrong: %d %d %d %d", img[0], img[255], img[256], img[299])
	}
}

func TestWriteBehindBoundsChecked(t *testing.T) {
	file := NewSharedFile(128)
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) {
		cl := NewWriteBehindClient(c, file, 64, 32)
		if err := cl.Write(120, make([]byte, 16)); err == nil {
			panic("expected out-of-range error")
		}
		cl.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheAndWriteBehindAgree(t *testing.T) {
	// Both live §5 protocols must produce the identical canonical image for
	// the same pattern (the cross-method invariant of figure 8).
	k := Kernel{NxP: 5, NyP: 4, NzP: 3, Px: 2, Py: 2, Pz: 1}
	fWB, _ := runWriteBehind(t, k, 200, 96)
	fCache, _ := runCachedForCompare(t, k)
	if !bytes.Equal(fWB.Bytes(), fCache.Bytes()) {
		t.Fatal("write-behind and caching images differ")
	}
}

func runCachedForCompare(t *testing.T, k Kernel) (*SharedFile, []cacheStats) {
	return runCached(t, k, CacheConfig{PageBytes: 200})
}
