package pario

// This file implements the two-stage write-behind buffering of paper §5.2
// as a live message-passing protocol (the performance model lives in
// methods.go): write data accumulate in first-stage local sub-buffers, one
// per remote process, "along with the requesting file offset and length";
// when a sub-buffer fills it is flushed to the second stage — global file
// pages statically bound round-robin to the MPI processes — whose owners
// apply the records and eventually write whole aligned pages. The file must
// be opened write-only and no coherence control is needed.

import (
	"fmt"
	"sync"

	"github.com/s3dgo/s3d/internal/comm"
)

// Write-behind message tags (distinct from the cache-layer tags).
const (
	tagWBFlush    = 9100 // [count, (page, inPage, n, payload...)×count]
	tagWBFlushAck = 9101
	tagWBShutdown = 9102
)

// WriteBehindClient is one rank's handle on the write-behind layer.
type WriteBehindClient struct {
	c    *comm.Comm
	sc   *comm.Comm // the server goroutine's handle: same rank, no profiler
	file *SharedFile

	pageBytes int64
	subBytes  int64

	// First stage: one sub-buffer per destination rank, holding flattened
	// (page, inPage, n, payload) records.
	pending      [][]float64
	pendingBytes []int64

	// Second stage: pages this rank owns (page % size == rank).
	pageMu sync.Mutex
	pages  map[int64][]byte
	dirty  map[int64]int64 // high-water marks

	serverDone chan struct{}
	// Stats (owned by the client goroutine, like Write/Close).
	Flushes, LocalAppends int
}

// NewWriteBehindClient opens the layer collectively over file. The §5.2
// defaults are a 64 kB sub-buffer and stripe-sized pages; zeros select
// pageBytes = 512 kB and subBytes = 64 kB.
func NewWriteBehindClient(c *comm.Comm, file *SharedFile, pageBytes, subBytes int64) *WriteBehindClient {
	if pageBytes <= 0 {
		pageBytes = 512 << 10
	}
	if subBytes <= 0 {
		subBytes = firstStageBufBytes
	}
	cl := &WriteBehindClient{
		c:            c,
		sc:           c.WithoutProfiler(),
		file:         file,
		pageBytes:    pageBytes,
		subBytes:     subBytes,
		pending:      make([][]float64, c.Size()),
		pendingBytes: make([]int64, c.Size()),
		pages:        map[int64][]byte{},
		dirty:        map[int64]int64{},
		serverDone:   make(chan struct{}),
	}
	go cl.serve()
	c.Barrier()
	return cl
}

// owner returns the rank owning a page ("page i resides on the process of
// rank (i mod nproc)", §5.2).
func (cl *WriteBehindClient) owner(page int64) int { return int(page) % cl.c.Size() }

// Write appends data at the canonical offset to the first-stage buffers.
func (cl *WriteBehindClient) Write(off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > cl.file.Size() {
		return fmt.Errorf("pario: write-behind write [%d, %d) outside file",
			off, off+int64(len(data)))
	}
	pos := int64(0)
	for pos < int64(len(data)) {
		page := (off + pos) / cl.pageBytes
		inPage := (off + pos) % cl.pageBytes
		n := min64(int64(len(data))-pos, cl.pageBytes-inPage)
		d := cl.owner(page)
		if d == cl.c.Rank() {
			// Local second-stage page: apply directly (a memcpy).
			cl.apply(page, inPage, data[pos:pos+n])
			cl.LocalAppends++
		} else {
			rec := make([]float64, 3+n)
			rec[0], rec[1], rec[2] = float64(page), float64(inPage), float64(n)
			for i := int64(0); i < n; i++ {
				rec[3+i] = float64(data[pos+i])
			}
			cl.pending[d] = append(cl.pending[d], rec...)
			cl.pendingBytes[d] += n
			if cl.pendingBytes[d] >= cl.subBytes {
				cl.flush(d)
			}
		}
		pos += n
	}
	return nil
}

// flush ships one destination's sub-buffer to its owner and waits for the
// owner's ack.
func (cl *WriteBehindClient) flush(d int) {
	if len(cl.pending[d]) == 0 {
		return
	}
	cl.c.Send(d, tagWBFlush, cl.pending[d])
	ack := make([]float64, 1)
	cl.c.Recv(d, tagWBFlushAck, ack)
	cl.pending[d] = nil
	cl.pendingBytes[d] = 0
	cl.Flushes++
}

// apply copies a record into an owned second-stage page.
func (cl *WriteBehindClient) apply(page, inPage int64, data []byte) {
	cl.pageMu.Lock()
	defer cl.pageMu.Unlock()
	p := cl.pages[page]
	if p == nil {
		size := min64(cl.pageBytes, cl.file.Size()-page*cl.pageBytes)
		p = make([]byte, size)
		cl.pages[page] = p
	}
	copy(p[inPage:], data)
	if hw := inPage + int64(len(data)); hw > cl.dirty[page] {
		cl.dirty[page] = hw
	}
}

// Close drains the first stage, flushes owned pages and stops the server.
// Collective.
func (cl *WriteBehindClient) Close() {
	// Drain our first-stage buffers ("at file close, all dirty buffers are
	// flushed").
	for d := range cl.pending {
		cl.flush(d)
	}
	// All ranks must have drained before owners flush pages.
	cl.c.Barrier()
	cl.pageMu.Lock()
	for page, data := range cl.pages {
		if hw := cl.dirty[page]; hw > 0 {
			cl.file.writeAt(page*cl.pageBytes, data[:hw])
		}
	}
	cl.pageMu.Unlock()
	cl.c.Barrier()
	cl.c.Send(cl.c.Rank(), tagWBShutdown, []float64{0})
	<-cl.serverDone
	cl.c.Barrier()
}

// serve is the I/O thread handling incoming sub-buffer flushes: "once an
// I/O thread is created, it enters an infinite loop to serve both local and
// remote write requests until it is signaled to terminate" (§5.2).
func (cl *WriteBehindClient) serve() {
	defer close(cl.serverDone)
	buf := make([]byte, 0, cl.subBytes)
	for {
		src, tag, msg := cl.sc.RecvAny([]int{tagWBFlush, tagWBShutdown})
		if tag == tagWBShutdown {
			return
		}
		// Parse the flattened records and apply each to its page.
		pos := 0
		for pos < len(msg) {
			page := int64(msg[pos])
			inPage := int64(msg[pos+1])
			n := int64(msg[pos+2])
			pos += 3
			buf = buf[:0]
			for i := int64(0); i < n; i++ {
				buf = append(buf, byte(msg[pos]))
				pos++
			}
			cl.apply(page, inPage, buf)
		}
		cl.sc.Send(src, tagWBFlushAck, []float64{1})
	}
}
