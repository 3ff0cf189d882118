package pario

import (
	"testing"
)

// testKernel is a small but non-trivial pattern: 3-D process grid, rows
// that do not align with pages.
func testKernel() Kernel { return Kernel{NxP: 6, NyP: 5, NzP: 4, Px: 2, Py: 2, Pz: 2} }

func TestKernelSizes(t *testing.T) {
	k := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 2, Py: 2, Pz: 2}
	// §5.3: "about 15.26 MB of write data per process per checkpoint".
	got := float64(k.BytesPerProc()) / (1 << 20)
	if got < 15.2 || got > 15.3 {
		t.Fatalf("bytes per proc = %.3f MiB, want ≈ 15.26", got)
	}
	if k.FileBytes() != k.BytesPerProc()*8 {
		t.Fatalf("file size inconsistent")
	}
}

func TestRunsCoverFileExactlyOnce(t *testing.T) {
	k := testKernel()
	covered := make([]int, k.FileBytes()/wordBytes)
	for p := 0; p < k.NumProcs(); p++ {
		for _, r := range k.Runs(p) {
			if r.Offset%wordBytes != 0 || r.Bytes%wordBytes != 0 {
				t.Fatalf("unaligned run %+v", r)
			}
			for c := 0; c < r.Count; c++ {
				off := (r.Offset + int64(c)*r.Stride) / wordBytes
				for w := int64(0); w < r.Bytes/wordBytes; w++ {
					covered[off+w]++
				}
			}
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("word %d covered %d times", i, n)
		}
	}
}

func TestRequestCount(t *testing.T) {
	k := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 2, Py: 2, Pz: 2}
	// Rows per proc: (11+3+1+1)·50·50 = 40000 — the §5.3 request blow-up.
	if got := k.RequestCount(0); got != 40000 {
		t.Fatalf("requests = %d, want 40000", got)
	}
}

func TestCanonicalImageIdenticalAcrossMethods(t *testing.T) {
	k := testKernel()
	// Page smaller than a z-plane so pages are genuinely shared; sub-buffer
	// small enough to force multiple flushes.
	if err := k.VerifyImages(256, 128); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalImageLargerPages(t *testing.T) {
	k := Kernel{NxP: 10, NyP: 6, NzP: 3, Px: 2, Py: 1, Pz: 2}
	if err := k.VerifyImages(4096, 1024); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedPagesHaveNoConflicts(t *testing.T) {
	// The §5.3 claim: aligning writes with lock boundaries removes false
	// sharing. Aligned whole-page writes from distinct owners must beat the
	// same bytes written as unaligned overlapping-stripe ranges.
	fs := Lustre()
	const np = 8
	pageB := fs.StripeBytes
	fileBytes := pageB * 64
	aligned := make([][]Run, np)
	for pg := int64(0); pg < 64; pg++ {
		p := int(pg) % np
		aligned[p] = append(aligned[p], Run{Offset: pg * pageB, Bytes: pageB, Count: 1})
	}
	tAligned := fs.SharedWriteTime(aligned, fileBytes)

	unaligned := make([][]Run, np)
	chunk := fileBytes / np
	for p := 0; p < np; p++ {
		// Shift by half a stripe so every boundary stripe is shared.
		off := int64(p)*chunk + pageB/2
		if p == 0 {
			off = 0
		}
		end := int64(p+1)*chunk + pageB/2
		if p == np-1 {
			end = fileBytes
		}
		unaligned[p] = []Run{{Offset: off, Bytes: end - off, Count: 1}}
	}
	tUnaligned := fs.SharedWriteTime(unaligned, fileBytes)
	if tAligned >= tUnaligned {
		t.Fatalf("aligned %g s not faster than unaligned %g s", tAligned, tUnaligned)
	}
}

func TestFig9Orderings(t *testing.T) {
	// The qualitative results of figure 9 and §5.3, per file system.
	k := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 2} // 32 procs
	net := GigE()
	const ckpts = 10
	run := func(fs *FS, m Method) Result { return m.Simulate(k, fs, net, ckpts) }

	lustre := Lustre()
	gpfs := GPFS()

	lFortran := run(lustre, FortranIO{})
	lColl := run(lustre, NativeCollective{})
	lCache := run(lustre, MPIIOCaching{})
	lWB := run(lustre, TwoStageWriteBehind{})
	lInd := run(lustre, NativeIndependent{})

	// "Fortran I/O has significantly better performance than the others
	// cases on Lustre."
	if !(lFortran.BandwidthMBs > lColl.BandwidthMBs &&
		lFortran.BandwidthMBs > lCache.BandwidthMBs &&
		lFortran.BandwidthMBs > lWB.BandwidthMBs) {
		t.Fatalf("Lustre: Fortran not fastest: F=%.0f C=%.0f Ca=%.0f WB=%.0f",
			lFortran.BandwidthMBs, lColl.BandwidthMBs, lCache.BandwidthMBs, lWB.BandwidthMBs)
	}
	// "MPI-I/O caching outperforms the native collective I/O on both."
	if lCache.BandwidthMBs <= lColl.BandwidthMBs {
		t.Fatalf("Lustre: caching %.0f not above native collective %.0f",
			lCache.BandwidthMBs, lColl.BandwidthMBs)
	}
	// "[write-behind] outperforms the MPI-I/O caching on Lustre."
	if lWB.BandwidthMBs <= lCache.BandwidthMBs {
		t.Fatalf("Lustre: write-behind %.0f not above caching %.0f",
			lWB.BandwidthMBs, lCache.BandwidthMBs)
	}
	// "using independent I/O natively ... less than 5 MB per second."
	if lInd.BandwidthMBs >= 8 {
		t.Fatalf("Lustre: independent I/O too fast: %.1f MB/s", lInd.BandwidthMBs)
	}

	gColl := run(gpfs, NativeCollective{})
	gCache := run(gpfs, MPIIOCaching{})
	gWB := run(gpfs, TwoStageWriteBehind{})
	// Caching beats native collective on GPFS too.
	if gCache.BandwidthMBs <= gColl.BandwidthMBs {
		t.Fatalf("GPFS: caching %.0f not above native collective %.0f",
			gCache.BandwidthMBs, gColl.BandwidthMBs)
	}
	// "[write-behind] is worse than the native collective I/O on GPFS."
	if gWB.BandwidthMBs >= gColl.BandwidthMBs {
		t.Fatalf("GPFS: write-behind %.0f not below native collective %.0f",
			gWB.BandwidthMBs, gColl.BandwidthMBs)
	}
}

func TestGPFSOpenCostsDominateAtScale(t *testing.T) {
	// Figure 9 right panel: Fortran file-per-process opens grow dramatically
	// on GPFS with process count, much less on Lustre.
	net := GigE()
	small := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 2, Py: 2, Pz: 2} // 8
	large := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 8, Py: 4, Pz: 4} // 128
	gSmall := FortranIO{}.Simulate(small, GPFS(), net, 10)
	gLarge := FortranIO{}.Simulate(large, GPFS(), net, 10)
	lSmall := FortranIO{}.Simulate(small, Lustre(), net, 10)
	lLarge := FortranIO{}.Simulate(large, Lustre(), net, 10)
	gGrowth := gLarge.OpenTime / gSmall.OpenTime
	lGrowth := lLarge.OpenTime / lSmall.OpenTime
	if gGrowth <= lGrowth {
		t.Fatalf("GPFS open growth %.1f not above Lustre %.1f", gGrowth, lGrowth)
	}
	// At 128 processes GPFS opens are a visible fraction of the run.
	if gLarge.OpenTime < 10*lLarge.OpenTime {
		t.Fatalf("GPFS opens %.2fs vs Lustre %.2fs — expected ≫", gLarge.OpenTime, lLarge.OpenTime)
	}
}

func TestBandwidthScalesWithProcs(t *testing.T) {
	// Aggregate I/O grows with process count for the scalable paths
	// (figure 9 shows rising curves for write-behind on Lustre).
	net := GigE()
	k8 := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 2, Py: 2, Pz: 2}
	k64 := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 4}
	b8 := TwoStageWriteBehind{}.Simulate(k8, Lustre(), net, 10)
	b64 := TwoStageWriteBehind{}.Simulate(k64, Lustre(), net, 10)
	if b64.BandwidthMBs <= b8.BandwidthMBs {
		t.Fatalf("write-behind bandwidth not scaling: %.0f → %.0f MB/s",
			b8.BandwidthMBs, b64.BandwidthMBs)
	}
}

func BenchmarkSimulateFig9Point(b *testing.B) {
	k := Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 2}
	net := GigE()
	fs := Lustre()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MPIIOCaching{}.Simulate(k, fs, net, 10)
	}
}
