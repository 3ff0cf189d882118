package pario

// This file implements the MPI-I/O caching layer of paper §5.1 as a real
// concurrent protocol (not just the analytic performance model): every MPI
// process runs an I/O thread; a file is divided into equally sized pages;
// cache metadata is statically distributed round-robin over the processes;
// metadata locks are acquired by message exchange with the metadata owner;
// a page is cached by the first process that touches it; remote requests
// are forwarded to the page owner; eviction is local-LRU under a byte
// bound; and closing the file flushes dirty pages up to their high-water
// marks. Figure 6's read flow (metadata lookup → cache locally on miss /
// forward to owner on hit) is implemented literally.

import (
	"fmt"
	"sync"

	"github.com/s3dgo/s3d/internal/comm"
)

// SharedFile is the in-memory stand-in for the parallel file system file
// that the caching layer sits in front of. Reads and writes lock per call,
// modelling the sector-atomicity the file system enforces.
type SharedFile struct {
	mu   sync.Mutex
	data []byte
	// reads/writes count file-system accesses (the quantity caching is
	// meant to reduce).
	reads, writes int
}

// NewSharedFile creates a zero-filled file of the given size.
func NewSharedFile(size int64) *SharedFile {
	return &SharedFile{data: make([]byte, size)}
}

// Size returns the file size.
func (f *SharedFile) Size() int64 { return int64(len(f.data)) }

// Bytes returns the file image (call after all clients closed).
func (f *SharedFile) Bytes() []byte { return f.data }

// Accesses reports the number of read and write calls that reached the
// file system.
func (f *SharedFile) Accesses() (reads, writes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes
}

func (f *SharedFile) readAt(off int64, buf []byte) {
	f.mu.Lock()
	copy(buf, f.data[off:])
	f.reads++
	f.mu.Unlock()
}

func (f *SharedFile) writeAt(off int64, buf []byte) {
	f.mu.Lock()
	copy(f.data[off:], buf)
	f.writes++
	f.mu.Unlock()
}

// Cache message tags. Each rank's I/O "thread" serves requests with tagged
// request/response exchanges over the comm runtime.
const (
	tagMetaLock  = 9000 // request metadata: returns owner (or claims it)
	tagMetaReply = 9001
	tagPageWrite = 9002 // forward data to the page owner
	tagPageAck   = 9003
	tagPageRead  = 9004 // fetch data from the page owner
	tagPageData  = 9005
	tagShutdown  = 9006
)

// CacheConfig tunes the layer; zero values select the §5.1 defaults.
type CacheConfig struct {
	PageBytes int64 // default: 512 kB ("the file system block size")
	MaxBytes  int64 // local cache bound; default 32 MB ("by default 32 MB")
}

func (c CacheConfig) pageBytes() int64 {
	if c.PageBytes > 0 {
		return c.PageBytes
	}
	return 512 << 10
}

func (c CacheConfig) maxBytes() int64 {
	if c.MaxBytes > 0 {
		return c.MaxBytes
	}
	return 32 << 20
}

// cachedPage is one locally cached page with its dirty high-water mark.
type cachedPage struct {
	data  []byte
	dirty int64 // bytes [0, dirty) are dirty (§5.1's high water mark)
	// LRU bookkeeping.
	prev, next int64
	resident   bool
}

// CacheClient is one rank's view of the caching layer. It must be used by
// that rank's goroutine only; the embedded I/O thread (server goroutine)
// handles remote requests concurrently, as in the paper's design.
type CacheClient struct {
	cfg  CacheConfig
	c    *comm.Comm
	sc   *comm.Comm // the server goroutine's handle: same rank, no profiler
	file *SharedFile

	// Metadata shard owned by this rank: pageIndex → owner rank (-1 if the
	// page is not cached anywhere yet). Guarded by metaMu because both the
	// local client path and the server goroutine touch it.
	metaMu sync.Mutex
	meta   map[int64]int

	// Local page cache (client-side only; the server goroutine accesses it
	// under pageMu when serving remote reads/writes).
	pageMu    sync.Mutex
	pages     map[int64]*cachedPage
	residency int64 // bytes currently cached
	lruHead   int64 // most recent
	lruTail   int64 // least recent
	hasLRU    bool

	serverDone chan struct{}
	// Stats. LocalHits/RemoteForwards count client-side operations (owned by
	// the client goroutine); Misses/Evictions are updated under pageMu
	// because the server goroutine also touches pages.
	LocalHits, RemoteForwards, Evictions int
	Misses                               int // page loads from the file system
}

// NewCacheClient attaches a rank to the caching layer over file. All ranks
// of the communicator must create their client before any does I/O
// (mirroring the collective MPI_File_open).
func NewCacheClient(c *comm.Comm, file *SharedFile, cfg CacheConfig) *CacheClient {
	cl := &CacheClient{
		cfg:        cfg,
		c:          c,
		sc:         c.WithoutProfiler(),
		file:       file,
		meta:       map[int64]int{},
		pages:      map[int64]*cachedPage{},
		serverDone: make(chan struct{}),
	}
	go cl.serve()
	c.Barrier()
	return cl
}

// metaOwner returns the rank holding the metadata of a page (round-robin,
// "statically distributed ... among the MPI processes", §5.1).
func (cl *CacheClient) metaOwner(page int64) int {
	return int(page) % cl.c.Size()
}

// pageOf returns the page index and offset-within-page.
func (cl *CacheClient) pageOf(off int64) (int64, int64) {
	pb := cl.cfg.pageBytes()
	return off / pb, off % pb
}

// lookupOwner queries (and atomically claims, if unowned) the page's owner
// through its metadata owner. Claiming implements "the requesting process
// will try to cache the page locally" for first touch.
func (cl *CacheClient) lookupOwner(page int64) int {
	mo := cl.metaOwner(page)
	if mo == cl.c.Rank() {
		cl.metaMu.Lock()
		owner, ok := cl.meta[page]
		if !ok {
			owner = cl.c.Rank()
			cl.meta[page] = owner
		}
		cl.metaMu.Unlock()
		return owner
	}
	// Remote metadata: request [page, claimant]; reply [owner].
	cl.c.Send(mo, tagMetaLock, []float64{float64(page), float64(cl.c.Rank())})
	reply := make([]float64, 1)
	cl.c.Recv(mo, tagMetaReply, reply)
	return int(reply[0])
}

// Write writes buf at the canonical offset through the cache.
func (cl *CacheClient) Write(off int64, buf []byte) error {
	if off < 0 || off+int64(len(buf)) > cl.file.Size() {
		return fmt.Errorf("pario: cache write [%d, %d) outside file of %d bytes",
			off, off+int64(len(buf)), cl.file.Size())
	}
	pb := cl.cfg.pageBytes()
	pos := int64(0)
	for pos < int64(len(buf)) {
		page, inPage := cl.pageOf(off + pos)
		n := min64(int64(len(buf))-pos, pb-inPage)
		owner := cl.lookupOwner(page)
		if owner == cl.c.Rank() {
			cl.writeLocal(page, inPage, buf[pos:pos+n])
			cl.LocalHits++
		} else {
			// Forward to the owner: [page, inPage, n, payload...].
			msg := make([]float64, 3+n)
			msg[0], msg[1], msg[2] = float64(page), float64(inPage), float64(n)
			for i := int64(0); i < n; i++ {
				msg[3+i] = float64(buf[pos+i])
			}
			cl.c.Send(owner, tagPageWrite, msg)
			ack := make([]float64, 1)
			cl.c.Recv(owner, tagPageAck, ack)
			cl.RemoteForwards++
		}
		pos += n
	}
	return nil
}

// Read reads into buf from the canonical offset through the cache
// (figure 6's flow: metadata lookup, then local caching or forward to the
// remote owner).
func (cl *CacheClient) Read(off int64, buf []byte) error {
	if off < 0 || off+int64(len(buf)) > cl.file.Size() {
		return fmt.Errorf("pario: cache read [%d, %d) outside file", off, off+int64(len(buf)))
	}
	pb := cl.cfg.pageBytes()
	pos := int64(0)
	for pos < int64(len(buf)) {
		page, inPage := cl.pageOf(off + pos)
		n := min64(int64(len(buf))-pos, pb-inPage)
		owner := cl.lookupOwner(page)
		if owner == cl.c.Rank() {
			cl.readLocal(page, inPage, buf[pos:pos+n])
			cl.LocalHits++
		} else {
			cl.c.Send(owner, tagPageRead, []float64{float64(page), float64(inPage), float64(n)})
			data := make([]float64, n)
			cl.c.Recv(owner, tagPageData, data)
			for i := int64(0); i < n; i++ {
				buf[pos+i] = byte(data[i])
			}
			cl.RemoteForwards++
		}
		pos += n
	}
	return nil
}

// writeLocal stores into the locally owned page, loading it on first touch
// ("by reading the necessary part of the page if it is a write operation" —
// we load the prefix so the high-water flush is correct).
func (cl *CacheClient) writeLocal(page, inPage int64, data []byte) {
	cl.pageMu.Lock()
	defer cl.pageMu.Unlock()
	p := cl.ensurePageLocked(page)
	copy(p.data[inPage:], data)
	if hw := inPage + int64(len(data)); hw > p.dirty {
		p.dirty = hw
	}
	cl.touchLocked(page)
}

func (cl *CacheClient) readLocal(page, inPage int64, buf []byte) {
	cl.pageMu.Lock()
	defer cl.pageMu.Unlock()
	p := cl.ensurePageLocked(page)
	copy(buf, p.data[inPage:inPage+int64(len(buf))])
	cl.touchLocked(page)
}

// ensurePageLocked returns the resident page, loading from the file system
// (and evicting LRU pages past the bound) as needed. pageMu must be held.
func (cl *CacheClient) ensurePageLocked(page int64) *cachedPage {
	if p, ok := cl.pages[page]; ok {
		return p
	}
	cl.Misses++
	pb := cl.cfg.pageBytes()
	size := min64(pb, cl.file.Size()-page*pb)
	// Under memory pressure, evict least-recently-used local pages first
	// ("Eviction is solely based on only local references and a
	// least-recent-used policy", §5.1).
	for cl.residency+size > cl.cfg.maxBytes() && cl.hasLRU {
		cl.evictLocked(cl.lruTail)
	}
	p := &cachedPage{data: make([]byte, size)}
	cl.file.readAt(page*pb, p.data)
	cl.pages[page] = p
	cl.residency += size
	cl.lruInsertLocked(page)
	return p
}

// evictLocked flushes a dirty page and drops it.
func (cl *CacheClient) evictLocked(page int64) {
	p := cl.pages[page]
	if p == nil {
		return
	}
	if p.dirty > 0 {
		cl.file.writeAt(page*cl.cfg.pageBytes(), p.data[:p.dirty])
	}
	cl.lruRemoveLocked(page)
	cl.residency -= int64(len(p.data))
	delete(cl.pages, page)
	cl.Evictions++
}

// Close flushes all dirty pages and stops the I/O thread. All ranks must
// call Close collectively; the file image is complete afterwards.
func (cl *CacheClient) Close() {
	// Quiesce first: once every client has entered Close, no further remote
	// writes can be in flight (each Write completed its ack), so the local
	// flush below cannot lose late-arriving dirty data.
	cl.c.Barrier()
	cl.pageMu.Lock()
	for page, p := range cl.pages {
		if p.dirty > 0 {
			cl.file.writeAt(page*cl.cfg.pageBytes(), p.data[:p.dirty])
			p.dirty = 0
		}
	}
	cl.pageMu.Unlock()
	// Wait for every rank to flush before tearing down servers.
	cl.c.Barrier()
	// Unblock our own server with a shutdown message.
	cl.c.Send(cl.c.Rank(), tagShutdown, []float64{0})
	<-cl.serverDone
	cl.c.Barrier()
}

// serve is the I/O thread: it handles metadata lookups and remote page
// reads/writes "running in the background [so] the program main thread can
// continue without interruption" (§5.1).
func (cl *CacheClient) serve() {
	defer close(cl.serverDone)
	for {
		src, tag, msg := cl.recvAny()
		switch tag {
		case tagShutdown:
			return
		case tagMetaLock:
			page := int64(msg[0])
			claimant := int(msg[1])
			cl.metaMu.Lock()
			owner, ok := cl.meta[page]
			if !ok {
				owner = claimant
				cl.meta[page] = owner
			}
			cl.metaMu.Unlock()
			cl.sc.Send(src, tagMetaReply, []float64{float64(owner)})
		case tagPageWrite:
			page, inPage, n := int64(msg[0]), int64(msg[1]), int64(msg[2])
			data := make([]byte, n)
			for i := int64(0); i < n; i++ {
				data[i] = byte(msg[3+i])
			}
			cl.writeLocal(page, inPage, data)
			cl.sc.Send(src, tagPageAck, []float64{1})
		case tagPageRead:
			page, inPage, n := int64(msg[0]), int64(msg[1]), int64(msg[2])
			buf := make([]byte, n)
			cl.readLocal(page, inPage, buf)
			out := make([]float64, n)
			for i := int64(0); i < n; i++ {
				out[i] = float64(buf[i])
			}
			cl.sc.Send(src, tagPageData, out)
		}
	}
}

// recvAny blocks for the next server-bound message of any known tag from
// any rank. The comm runtime matches on explicit (src, tag), so the server
// polls a wildcard receive implemented via TryRecv semantics.
func (cl *CacheClient) recvAny() (src, tag int, msg []float64) {
	return cl.sc.RecvAny([]int{tagMetaLock, tagPageWrite, tagPageRead, tagShutdown})
}

// --- LRU list (intrusive on page indices) ---

func (cl *CacheClient) lruInsertLocked(page int64) {
	p := cl.pages[page]
	p.resident = true
	if !cl.hasLRU {
		cl.lruHead, cl.lruTail = page, page
		p.prev, p.next = -1, -1
		cl.hasLRU = true
		return
	}
	head := cl.pages[cl.lruHead]
	head.prev = page
	p.next = cl.lruHead
	p.prev = -1
	cl.lruHead = page
}

func (cl *CacheClient) lruRemoveLocked(page int64) {
	p := cl.pages[page]
	if p.prev >= 0 {
		cl.pages[p.prev].next = p.next
	} else {
		cl.lruHead = p.next
	}
	if p.next >= 0 {
		cl.pages[p.next].prev = p.prev
	} else {
		cl.lruTail = p.prev
	}
	if cl.lruHead < 0 {
		cl.hasLRU = false
	}
	p.resident = false
}

func (cl *CacheClient) touchLocked(page int64) {
	if cl.lruHead == page {
		return
	}
	cl.lruRemoveLocked(page)
	if !cl.hasLRU {
		cl.lruHead, cl.lruTail = page, page
		p := cl.pages[page]
		p.prev, p.next = -1, -1
		p.resident = true
		cl.hasLRU = true
		return
	}
	cl.lruInsertLocked(page)
}
