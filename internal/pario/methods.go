package pario

import "math"

// Net models the inter-process message network. The paper's experiments ran
// thread-safe MPICH2 over its default sock channel, "restricting
// inter-process communication ... to the slower Gigabit Ethernet" (§5.3) —
// the reason data redistribution shows up at all in figure 9.
type Net struct {
	Latency float64 // per message (s)
	BW      float64 // bytes/s per process
}

// GigE returns the Gigabit Ethernet model of §5.3.
func GigE() Net { return Net{Latency: 80e-6, BW: 110e6} }

// msgTime returns the cost of moving n messages totalling b bytes.
func (n Net) msgTime(msgs int, b int64) float64 {
	return float64(msgs)*n.Latency + float64(b)/n.BW
}

// Result is one method's simulated S3D-I/O benchmark outcome.
type Result struct {
	Method       string
	FS           string
	Procs        int
	OpenTime     float64 // total over all checkpoints (s)
	CommTime     float64
	WriteTime    float64
	TotalBytes   int64
	BandwidthMBs float64 // figure 9 left panels
}

func (r *Result) finalize() {
	t := r.OpenTime + r.CommTime + r.WriteTime
	if t > 0 {
		r.BandwidthMBs = float64(r.TotalBytes) / t / 1e6
	}
}

// Method is one of the figure-9 write paths.
type Method interface {
	Name() string
	Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result
}

// FortranIO is the original S3D path: "each process writes its sub-arrays
// to a new, separate file at each checkpoint" using Fortran I/O.
type FortranIO struct{}

// Name implements Method.
func (FortranIO) Name() string { return "fortran" }

// Simulate implements Method.
func (FortranIO) Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result {
	np := k.NumProcs()
	r := Result{Method: "fortran", FS: fs.Name, Procs: np}
	r.TotalBytes = k.FileBytes() * int64(checkpoints)
	// One new file per process per checkpoint.
	r.OpenTime = float64(checkpoints) * fs.OpenTime(np, np)
	// Local data is contiguous per array: four sequential writes.
	r.WriteTime = float64(checkpoints) * fs.PerProcessWriteTime(np, k.BytesPerProc(), len(arrayComps))
	r.finalize()
	return r
}

// NativeCollective is MPI_File_write_all through two-phase I/O: data is
// redistributed so each process writes one contiguous, but generally
// unaligned, partition of the shared file.
type NativeCollective struct{}

// Name implements Method.
func (NativeCollective) Name() string { return "collective" }

// Simulate implements Method.
func (NativeCollective) Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result {
	np := k.NumProcs()
	r := Result{Method: "collective", FS: fs.Name, Procs: np}
	fileBytes := k.FileBytes()
	r.TotalBytes = fileBytes * int64(checkpoints)
	r.OpenTime = float64(checkpoints) * fs.OpenTime(1, np)

	// Two-phase exchange: each rank keeps ~1/np of its data and ships the
	// rest; messages go to every aggregator whose range it intersects.
	bytesOut := k.BytesPerProc() * int64(np-1) / int64(np)
	msgs := np - 1
	if msgs > 64 {
		msgs = 64 // ROMIO batches aggregator traffic
	}
	r.CommTime = float64(checkpoints) * net.msgTime(msgs, bytesOut)

	// File-domain partitioning: contiguous equal ranges, unaligned to the
	// 512 kB stripes, so neighbouring aggregators falsely share boundary
	// stripes.
	chunk := fileBytes / int64(np)
	perProc := make([][]Run, np)
	for p := 0; p < np; p++ {
		perProc[p] = []Run{{Offset: int64(p) * chunk, Bytes: chunk, Stride: 0, Count: 1}}
	}
	r.WriteTime = float64(checkpoints) * fs.SharedWriteTime(perProc, fileBytes)
	r.finalize()
	return r
}

// NativeIndependent issues every request of the canonical pattern directly
// (the path §5.3 reports at under 5 MB/s).
type NativeIndependent struct{}

// Name implements Method.
func (NativeIndependent) Name() string { return "independent" }

// Simulate implements Method.
func (NativeIndependent) Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result {
	np := k.NumProcs()
	r := Result{Method: "independent", FS: fs.Name, Procs: np}
	r.TotalBytes = k.FileBytes() * int64(checkpoints)
	r.OpenTime = float64(checkpoints) * fs.OpenTime(1, np)
	perProc := make([][]Run, np)
	for p := 0; p < np; p++ {
		perProc[p] = k.Runs(p)
	}
	// Every request goes through an independent write call.
	r.WriteTime = float64(checkpoints) * (fs.SharedWriteTime(perProc, k.FileBytes()) +
		float64(k.RequestCount(0))*fs.IndepReqCost)
	r.finalize()
	return r
}

// pageInfo aggregates per-page activity of the canonical pattern.
type pageInfo struct {
	bytesByProc map[int]int64
	firstProc   int   // process with the lowest offset into the page
	firstOffset int64 // that offset
}

// pageMap distributes the pattern over aligned pages of the given size.
func pageMap(k Kernel, pageBytes int64) []pageInfo {
	np := k.NumProcs()
	n := int((k.FileBytes() + pageBytes - 1) / pageBytes)
	pages := make([]pageInfo, n)
	for i := range pages {
		pages[i].firstProc = -1
	}
	for p := 0; p < np; p++ {
		for _, r := range k.Runs(p) {
			for c := 0; c < r.Count; c++ {
				off := r.Offset + int64(c)*r.Stride
				end := off + r.Bytes
				for pg := off / pageBytes; pg <= (end-1)/pageBytes; pg++ {
					lo := max64(off, pg*pageBytes)
					hi := min64(end, (pg+1)*pageBytes)
					info := &pages[pg]
					if info.bytesByProc == nil {
						info.bytesByProc = map[int]int64{}
					}
					info.bytesByProc[p] += hi - lo
					if info.firstProc < 0 || lo < info.firstOffset {
						info.firstProc = p
						info.firstOffset = lo
					}
				}
			}
		}
	}
	return pages
}

// MPIIOCaching is collective I/O through the MPI-I/O caching layer of §5.1:
// the file is divided into pages (default: the stripe size, aligning all
// flushes with lock boundaries); a page is cached by the first process that
// touches it; distributed metadata locks guard every page access; remote
// touches ship data to the page owner.
type MPIIOCaching struct{}

// Name implements Method.
func (MPIIOCaching) Name() string { return "caching" }

// Simulate implements Method.
func (MPIIOCaching) Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result {
	np := k.NumProcs()
	r := Result{Method: "caching", FS: fs.Name, Procs: np}
	r.TotalBytes = k.FileBytes() * int64(checkpoints)
	r.OpenTime = float64(checkpoints) * fs.OpenTime(1, np)

	pages := pageMap(k, fs.StripeBytes)
	// Per-process communication: metadata lock round trips for every page
	// the process touches (two small messages to the round-robin metadata
	// owner), plus data shipped to pages owned elsewhere.
	commPerProc := make([]float64, np)
	ownedPages := make([]int64, np)
	for _, pg := range pages {
		if pg.firstProc < 0 {
			continue
		}
		ownedPages[pg.firstProc]++
		for p, b := range pg.bytesByProc {
			commPerProc[p] += net.msgTime(2, 0) // metadata lock/release
			if p != pg.firstProc {
				commPerProc[p] += net.msgTime(1, b)
			}
		}
	}
	r.CommTime = float64(checkpoints) * maxf(commPerProc)

	// Flushes: whole aligned pages by their owners — no false sharing.
	perProc := make([][]Run, np)
	for pgIdx, pg := range pages {
		if pg.firstProc < 0 {
			continue
		}
		perProc[pg.firstProc] = append(perProc[pg.firstProc],
			Run{Offset: int64(pgIdx) * fs.StripeBytes, Bytes: fs.StripeBytes, Count: 1})
	}
	r.WriteTime = float64(checkpoints) * fs.SharedWriteTime(perProc, k.FileBytes())
	r.finalize()
	return r
}

// TwoStageWriteBehind is the §5.2 scheme: write-only data accumulates in
// 64 kB first-stage sub-buffers (one per remote process) and is flushed to
// round-robin-assigned global page owners; owners write whole aligned
// pages. No coherence metadata is needed, but "the data written by a
// process in the first-stage buffers will most likely need to be flushed to
// remote processes".
type TwoStageWriteBehind struct{}

// firstStageBufBytes is the §5.2 first-stage sub-buffer size.
const firstStageBufBytes = 64 << 10

// Name implements Method.
func (TwoStageWriteBehind) Name() string { return "writebehind" }

// Simulate implements Method.
func (w TwoStageWriteBehind) Simulate(k Kernel, fs *FS, net Net, checkpoints int) Result {
	np := k.NumProcs()
	r := Result{Method: "writebehind", FS: fs.Name, Procs: np}
	r.TotalBytes = k.FileBytes() * int64(checkpoints)
	r.OpenTime = float64(checkpoints) * fs.OpenTime(1, np)

	pageBytes := fs.StripeBytes
	nPages := (k.FileBytes() + pageBytes - 1) / pageBytes
	// Bytes each process sends to each destination (page i owned by rank
	// i mod np). Offset-length records add ~16 B per request row.
	commPerProc := make([]float64, np)
	perProc := make([][]Run, np)
	for p := 0; p < np; p++ {
		toDest := make([]int64, np)
		for _, run := range k.Runs(p) {
			for c := 0; c < run.Count; c++ {
				off := run.Offset + int64(c)*run.Stride
				end := off + run.Bytes
				for pg := off / pageBytes; pg <= (end-1)/pageBytes; pg++ {
					lo := max64(off, pg*pageBytes)
					hi := min64(end, (pg+1)*pageBytes)
					toDest[int(pg)%np] += hi - lo + 16
				}
			}
		}
		var t float64
		for d, b := range toDest {
			if d == p || b == 0 {
				continue // local second-stage buffer: a memcpy
			}
			msgs := int((b + firstStageBufBytes - 1) / firstStageBufBytes)
			t += net.msgTime(msgs, b)
		}
		commPerProc[p] = t
	}
	r.CommTime = float64(checkpoints) * maxf(commPerProc)

	maxOwned := 0
	for pg := int64(0); pg < nPages; pg++ {
		owner := int(pg) % np
		perProc[owner] = append(perProc[owner],
			Run{Offset: pg * pageBytes, Bytes: pageBytes, Count: 1})
		if len(perProc[owner]) > maxOwned {
			maxOwned = len(perProc[owner])
		}
	}
	// §5.3: "the write-behind method uses independent I/O functions" — each
	// page flush is an independent write call.
	r.WriteTime = float64(checkpoints) * (fs.SharedWriteTime(perProc, k.FileBytes()) +
		float64(maxOwned)*fs.IndepReqCost)
	r.finalize()
	return r
}

// AllMethods returns the four figure-9 paths (independent native I/O is
// reported separately in the text).
func AllMethods() []Method {
	return []Method{FortranIO{}, NativeCollective{}, MPIIOCaching{}, TwoStageWriteBehind{}}
}

func maxf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}
