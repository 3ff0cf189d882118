// Package comm is an in-process message-passing runtime with MPI semantics,
// the substrate under the S3D domain decomposition (paper §2.6). Ranks are
// goroutines; point-to-point messages are non-blocking sends and receives
// matched on (source, tag) in posting order, exactly the subset of MPI that
// S3D uses: nearest-neighbour Isend/Irecv/Wait for ghost-zone construction,
// plus all-to-all reductions "only for monitoring and synchronization ahead
// of I/O".
//
// Matching follows MPI's two queues, both held in the receiving rank's
// mailbox. A posted receive that found no message waits in the posted
// queue; a send that finds its receive there copies straight into the
// receive's buffer, so a halo message is copied once and allocates nothing.
// A send that finds none is an unexpected message: it is copied into a
// buffer from the mailbox's bounded free list and queued, and the receive
// that later takes it returns the buffer to the list. Either way sends are
// buffered (the caller may reuse its buffer as soon as Isend returns) and
// messages of one (source, tag) pair never overtake each other.
//
// The runtime counts bytes and messages per rank so the performance model
// (internal/perf) and the parallel-I/O model (internal/pario) can charge
// communication costs without wall-clock timing noise. Every message also
// carries a matchable envelope (sender rank, tag, step, RK stage, byte
// count, post time on the prof.Now clock), and each rank can arm a per-step
// event trace — the substrate for the wait-state and critical-path analyzer
// in internal/critpath.
package comm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
)

// World owns the communication state for a fixed number of ranks.
type World struct {
	n     int
	boxes []*mailbox
	coll  *collective

	// Abort state: a failing rank (or the health layer) marks the world
	// aborted and wakes every blocked peer, which panics with an abort
	// sentinel that Run folds into its error report — so one dead rank can
	// never leak a neighbour's goroutine in a pending Wait forever.
	aborted    atomic.Bool
	abortMu    sync.Mutex
	abortCause string
	abortHooks []func()

	// Per-rank telemetry, updated with single atomic adds so the accounting
	// stays off the critical path (the "counts bytes and messages per rank"
	// contract in the package comment, extended with blocked-time tracking
	// for the observability layer). Blocked time is the difference of two
	// prof.Now stamps the call takes anyway, so it is the interval a traced
	// event records.
	bytesSent  []atomic.Int64
	msgsSent   []atomic.Int64
	bytesRecv  []atomic.Int64
	msgsRecv   []atomic.Int64
	waitPeerNs []atomic.Int64 // time blocked in point-to-point Wait, indexed rank*n + peer
	collNs     []atomic.Int64 // time blocked in collectives
	allreduces []atomic.Int64
	barriers   []atomic.Int64
}

// NewWorld creates a world with n ranks.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("comm: non-positive world size %d", n))
	}
	w := &World{
		n:          n,
		boxes:      make([]*mailbox, n),
		coll:       newCollective(n),
		bytesSent:  make([]atomic.Int64, n),
		msgsSent:   make([]atomic.Int64, n),
		bytesRecv:  make([]atomic.Int64, n),
		msgsRecv:   make([]atomic.Int64, n),
		waitPeerNs: make([]atomic.Int64, n*n),
		collNs:     make([]atomic.Int64, n),
		allreduces: make([]atomic.Int64, n),
		barriers:   make([]atomic.Int64, n),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// WaitByPeer appends to dst[:0] rank r's cumulative point-to-point blocked
// time in nanoseconds, split by the peer rank the wait was matched against,
// and returns it: a dst of the world's size is reused, so a per-step reader
// allocates nothing. The counters accumulate whether or not an event trace
// is armed.
func (w *World) WaitByPeer(r int, dst []int64) []int64 {
	dst = dst[:0]
	for p := 0; p < w.n; p++ {
		dst = append(dst, w.waitPeerNs[r*w.n+p].Load())
	}
	return dst
}

// RankStats is the cumulative communication telemetry of one rank, in the
// trace's own type: a step record carries it as is. A Barrier is a
// zero-length reduce, counted under both Barriers and Allreduces.
type RankStats = obs.CommStats

// RankStats returns rank r's cumulative telemetry; its WaitSec is the sum
// of the rank's WaitByPeer.
func (w *World) RankStats(r int) RankStats {
	var wait int64
	for p := 0; p < w.n; p++ {
		wait += w.waitPeerNs[r*w.n+p].Load()
	}
	return RankStats{
		BytesSent:  w.bytesSent[r].Load(),
		MsgsSent:   w.msgsSent[r].Load(),
		BytesRecv:  w.bytesRecv[r].Load(),
		MsgsRecv:   w.msgsRecv[r].Load(),
		WaitSec:    float64(wait) / 1e9,
		CollSec:    float64(w.collNs[r].Load()) / 1e9,
		Allreduces: w.allreduces[r].Load(),
		Barriers:   w.barriers[r].Load(),
	}
}

// abortPanic is the sentinel thrown by blocked operations when the world
// aborts. Run recognises it and prefers the root cause over the echoes.
type abortPanic struct{ cause string }

// Abort marks the world aborted and wakes every rank blocked in a receive
// or collective; woken ranks panic with an abort sentinel that Run converts
// into per-rank errors. The first cause wins; later calls are no-ops.
func (w *World) Abort(cause string) {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	w.abortMu.Lock()
	w.abortCause = cause
	w.abortMu.Unlock()
	// Broadcast under each lock so a waiter is either woken here or sees
	// the flag before it can park (it re-checks while holding the lock).
	for _, box := range w.boxes {
		box.mu.Lock()
		box.cond.Broadcast()
		box.mu.Unlock()
	}
	w.coll.mu.Lock()
	w.coll.cond.Broadcast()
	w.coll.mu.Unlock()
	w.abortMu.Lock()
	hooks := w.abortHooks
	w.abortHooks = nil
	w.abortMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// OnAbort registers fn to run when the world aborts — the hook for layers
// with their own condition variables (the critpath deposit barrier) that
// Abort's mailbox/collective broadcasts cannot wake. If the world has
// already aborted, fn runs immediately.
func (w *World) OnAbort(fn func()) {
	w.abortMu.Lock()
	if w.aborted.Load() {
		w.abortMu.Unlock()
		fn()
		return
	}
	w.abortHooks = append(w.abortHooks, fn)
	w.abortMu.Unlock()
}

// Aborted reports whether the world has been aborted.
func (w *World) Aborted() bool { return w.aborted.Load() }

func (w *World) abortCauseLocked() string {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortCause
}

// checkAborted panics with the abort sentinel if the world is aborted.
// Callers hold the mailbox or collective mutex, so the check pairs with
// Abort's under-lock broadcast.
func (w *World) checkAborted() {
	if w.aborted.Load() {
		panic(abortPanic{w.abortCauseLocked()})
	}
}

// Run spawns one goroutine per rank executing body and waits for all of
// them. A panic in any rank is recovered and returned as an error naming
// the rank (so a failed parallel test reports cleanly instead of killing
// the process); the panic also aborts the world so peers blocked on the
// dead rank unwind instead of leaking. Abort echoes are reported only when
// no root-cause error exists.
func (w *World) Run(body func(c *Comm)) error {
	errs := make([]error, w.n)
	echo := make([]bool, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	for r := 0; r < w.n; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if ab, ok := p.(abortPanic); ok {
						errs[rank] = fmt.Errorf("comm: rank %d aborted: %s", rank, ab.cause)
						echo[rank] = true
						return
					}
					errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					w.Abort(fmt.Sprintf("rank %d panicked: %v", rank, p))
				}
			}()
			body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil && !echo[r] {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Self returns the communicator of a one-rank world of its own, usable on
// the caller's goroutine without World.Run — the MPI_COMM_SELF of this
// runtime, under a serial run's block. Its point-to-point neighbours are the
// rank itself or none, and its collectives return at once. No Run means no
// recovery: a panic propagates to the caller like any other.
func Self() *Comm { return &Comm{world: NewWorld(1)} }

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int

	// prof, when attached, records MPI_* spans on the rank's profiler
	// track, so blocked time is charged to the call path that blocked. A
	// span is recorded from the stamps the call takes for its counters and
	// trace events (a nil track's Record is free).
	prof *prof.Track

	// Step context, stamped onto message envelopes and trace events. Owned
	// by the rank's own goroutine — the solver sets it at step and RK-stage
	// boundaries; no locking.
	step, stage int

	// Per-step event trace for the wait-state analyzer (internal/critpath).
	// Armed and drained by the rank's own goroutine at step boundaries;
	// WithoutProfiler copies (pario server threads) never arm it.
	traceOn bool
	ptp     []PtPEvent
	colls   []CollEvent
	collSeq int
}

// AttachProfiler records this rank's communication calls (MPI_ISEND,
// MPI_WAIT, MPI_ALLREDUCE, MPI_BARRIER, and MPI_ALLGATHER for
// AllreduceOrdered) as spans on tr, each from the stamps the call already
// takes: a send is the instant it posts (buffered, it completes there), a
// wait its blocked interval, a collective its enter-to-exit interval. The
// track must be the calling rank's: spans land on whatever call path the
// rank currently has open.
func (c *Comm) AttachProfiler(tr *prof.Track) { c.prof = tr }

// WithoutProfiler returns a handle on the same world and rank that records
// no spans and no trace events — for server goroutines (the pario I/O
// threads) that share a rank's communicator but run concurrently with the
// rank's own call stack.
func (c *Comm) WithoutProfiler() *Comm { return &Comm{world: c.world, rank: c.rank} }

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// World returns the underlying world (for accounting queries).
func (c *Comm) World() *World { return c.world }

// Stats returns this rank's cumulative communication telemetry.
func (c *Comm) Stats() RankStats { return c.world.RankStats(c.rank) }

// SetStepContext stamps subsequent messages and trace events with the
// solver's step number and RK stage. Call from the rank's own goroutine.
func (c *Comm) SetStepContext(step, stage int) { c.step, c.stage = step, stage }

// ArmTrace turns per-operation event recording on or off, dropping any
// buffered events. While armed, every completed Isend/Wait and every
// collective appends one event; DrainTrace collects them. Collective
// sequence numbers restart at every arm so they match across ranks that
// arm at the same program point (a step boundary).
func (c *Comm) ArmTrace(on bool) {
	c.traceOn = on
	c.ptp = c.ptp[:0]
	c.colls = c.colls[:0]
	c.collSeq = 0
}

// DrainTrace returns the events recorded since ArmTrace and resets the
// buffers; the returned slices belong to the caller.
func (c *Comm) DrainTrace() ([]PtPEvent, []CollEvent) {
	p, cl := c.ptp, c.colls
	c.ptp, c.colls = nil, nil
	return p, cl
}

// PtP event kinds.
const (
	KindSend = "send"
	KindRecv = "recv"
)

// PtPEvent is one traced point-to-point operation (a completed send or
// receive). All timestamps are on the prof.Now clock.
type PtPEvent struct {
	Kind    string // "send" | "recv"
	Peer    int    // destination (send) or source (recv)
	Tag     int
	Bytes   int   // payload bytes
	Step    int   // poster's step context
	Stage   int   // poster's RK-stage context
	PostNs  int64 // when the operation was posted
	StartNs int64 // recv: when Wait began blocking; send: == PostNs
	DoneNs  int64 // when the operation completed
	// Receive side only: the matched sender's envelope — when the message
	// was posted (== when it arrived, under buffered-send semantics) and
	// the sender's step context at post time.
	SendPostNs int64
	SendStep   int
	SendStage  int
}

// Collective event kinds.
const (
	KindAllreduce        = "allreduce"
	KindAllreduceOrdered = "allreduce_ordered"
	KindBarrier          = "barrier"
)

// CollEvent is one traced collective call. Seq is the rank's collective
// sequence number since ArmTrace; because every rank executes the same
// collective program, equal Seq identifies the same collective across
// ranks.
type CollEvent struct {
	Kind    string
	Seq     int
	Bytes   int
	Step    int
	Stage   int
	EnterNs int64
	ExitNs  int64
}

// recordColl appends a collective trace event.
func (c *Comm) recordColl(kind string, bytes int, enterNs, exitNs int64) {
	if !c.traceOn {
		return
	}
	c.colls = append(c.colls, CollEvent{
		Kind: kind, Seq: c.collSeq, Bytes: bytes,
		Step: c.step, Stage: c.stage,
		EnterNs: enterNs, ExitNs: exitNs,
	})
	c.collSeq++
}

// envelope is what a receive learns of the send it matched: when the
// message was posted (== when it arrived, under buffered-send semantics) on
// the prof.Now clock, the sender's step context at post time, and the
// payload length.
type envelope struct {
	postNs      int64
	step, stage int
	n           int
}

// message is an unexpected point-to-point message: one that arrived before
// any receive was posted for it. Its data comes from the receiving
// mailbox's free list.
type message struct {
	src, tag int
	data     []float64
	env      envelope
}

// maxFree bounds a mailbox's free list. A halo exchange has at most two
// unexpected messages per neighbour in flight, so a few buffers per mailbox
// cover the steady state.
const maxFree = 8

// mailbox is one rank's matching state: the unexpected messages and the
// posted receives, each in posting order, and the free list the unexpected
// messages' buffers come from and return to. cond is broadcast whenever a
// message is queued or a posted receive is matched.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []message
	posted []*Request
	free   [][]float64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// takeMsg removes and returns the earliest unexpected message from
// (src, tag). Callers hold m.mu.
func (m *mailbox) takeMsg(src, tag int) (message, bool) {
	for i := range m.msgs {
		if msg := m.msgs[i]; msg.src == src && msg.tag == tag {
			m.msgs = slices.Delete(m.msgs, i, i+1)
			return msg, true
		}
	}
	return message{}, false
}

// takePosted removes and returns the earliest posted receive for
// (src, tag), or nil. Callers hold m.mu.
func (m *mailbox) takePosted(src, tag int) *Request {
	for i, r := range m.posted {
		if r.src == src && r.tag == tag {
			m.posted = slices.Delete(m.posted, i, i+1)
			return r
		}
	}
	return nil
}

// getBuf returns a buffer of length n: the free list's smallest one that is
// large enough, or a new one. Callers hold m.mu.
func (m *mailbox) getBuf(n int) []float64 {
	best := -1
	for i, b := range m.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(m.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	b := m.free[best]
	last := len(m.free) - 1
	m.free[best], m.free[last] = m.free[last], nil
	m.free = m.free[:last]
	return b[:n]
}

// putBuf returns a buffer to the free list. A full list keeps the larger
// buffers: b replaces the smallest one if it is larger, or is dropped.
// Callers hold m.mu.
func (m *mailbox) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	if len(m.free) < maxFree {
		m.free = append(m.free, b)
		return
	}
	small := 0
	for i := range m.free {
		if cap(m.free[i]) < cap(m.free[small]) {
			small = i
		}
	}
	if cap(b) > cap(m.free[small]) {
		m.free[small] = b
	}
}

// Request is a pending non-blocking operation. Wait blocks until complete.
type Request struct {
	done bool
	// Receive state: the posting communicator — whose mailbox, profiler
	// track, counters and trace the receive completes into — the match key,
	// the buffer, and the post time on the prof.Now clock. A send is complete
	// at post time and carries none of it.
	c        *Comm
	src, tag int
	buf      []float64
	postNs   int64
	// Match state, guarded by the receiving mailbox's lock: matched is set
	// once the payload is in buf (or, on a length mismatch, once it is known
	// not to fit), env is the matched send's envelope.
	matched bool
	env     envelope
}

// sent is the request every Isend returns: a buffered send is complete when
// it is posted, so there is nothing to wait for and nothing to allocate.
var sent = &Request{done: true}

// deliver copies the payload into the receive's buffer, unless the lengths
// disagree: then Wait reports the truncation on the receiving rank.
func (r *Request) deliver(data []float64) {
	if len(data) == len(r.buf) {
		copy(r.buf, data)
	}
}

// Isend posts a non-blocking send of data to rank dst with a tag. If dst
// has posted a receive for (this rank, tag), the earliest such receive is
// claimed and data is copied straight into its buffer; otherwise data is
// copied into a buffer from dst's free list and queued as an unexpected
// message. Either way the copy is made before Isend returns, so the caller
// may reuse its buffer immediately (buffered-send semantics, matching how
// S3D uses MPI_Isend on ghost buffers that are not touched until the
// matching wait anyway), and the returned request is already complete.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	if dst < 0 || dst >= c.world.n {
		panic(fmt.Sprintf("comm: rank %d Isend to invalid rank %d", c.rank, dst))
	}
	now := prof.Now()
	env := envelope{postNs: now, step: c.step, stage: c.stage, n: len(data)}
	box := c.world.boxes[dst]
	box.mu.Lock()
	if r := box.takePosted(c.rank, tag); r != nil {
		// Claimed: no other send can reach r now, and its receiver waits
		// for matched, so the copy runs outside the lock.
		r.env = env
		box.mu.Unlock()
		r.deliver(data)
		box.mu.Lock()
		r.matched = true
	} else {
		buf := box.getBuf(len(data))
		copy(buf, data)
		box.msgs = append(box.msgs, message{src: c.rank, tag: tag, data: buf, env: env})
	}
	box.mu.Unlock()
	box.cond.Broadcast()
	bytes := 8 * len(data)
	c.world.bytesSent[c.rank].Add(int64(bytes))
	c.world.msgsSent[c.rank].Add(1)
	if c.traceOn {
		c.ptp = append(c.ptp, PtPEvent{Kind: KindSend, Peer: dst, Tag: tag,
			Bytes: bytes, Step: c.step, Stage: c.stage,
			PostNs: now, StartNs: now, DoneNs: now})
	}
	c.prof.Record("MPI_ISEND", now, 0)
	return sent
}

// Irecv posts a non-blocking receive into buf for a message from rank src
// with the given tag. If such a message has already arrived, the earliest
// one is copied into buf now and its buffer returns to the mailbox's free
// list; otherwise the receive joins the posted queue, where the matching
// Isend fills it. Completion — and a truncation panic, if the lengths
// disagree — happens inside Wait.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	if src < 0 || src >= c.world.n {
		panic(fmt.Sprintf("comm: rank %d Irecv from invalid rank %d", c.rank, src))
	}
	r := &Request{c: c, src: src, tag: tag, buf: buf, postNs: prof.Now()}
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	if m, ok := box.takeMsg(src, tag); ok {
		r.deliver(m.data)
		box.putBuf(m.data)
		r.env, r.matched = m.env, true
	} else {
		box.posted = append(box.posted, r)
	}
	return r
}

// Wait blocks until the request completes and returns the nanoseconds it
// was blocked. A receive completes once a send has matched it (see Isend
// and Irecv); a length mismatch panics here, on the receiving rank, as MPI
// would raise a truncation error. The blocked interval — from Wait's entry
// stamp to its completion stamp, exactly the StartNs…DoneNs of the traced
// receive event and of the MPI_WAIT span — is charged to the posting rank's
// wait counter for the peer; a receive matched before its Wait has none. If
// the world aborts while blocked, Wait unwinds with the abort sentinel
// instead of parking forever.
func (r *Request) Wait() int64 {
	if r.done {
		return 0
	}
	c, w := r.c, r.c.world
	startNs := prof.Now()
	doneNs := startNs
	if !w.boxes[c.rank].await(w, r) {
		doneNs = prof.Now()
	}
	r.done = true
	if r.env.n != len(r.buf) {
		panic(fmt.Sprintf("comm: message truncation: got %d, posted %d (src %d tag %d)",
			r.env.n, len(r.buf), r.src, r.tag))
	}
	bytes := 8 * len(r.buf)
	w.bytesRecv[c.rank].Add(int64(bytes))
	w.msgsRecv[c.rank].Add(1)
	w.waitPeerNs[c.rank*w.n+r.src].Add(doneNs - startNs)
	if c.traceOn {
		c.ptp = append(c.ptp, PtPEvent{Kind: KindRecv,
			Peer: r.src, Tag: r.tag, Bytes: bytes,
			Step: c.step, Stage: c.stage,
			PostNs: r.postNs, StartNs: startNs, DoneNs: doneNs,
			SendPostNs: r.env.postNs, SendStep: r.env.step, SendStage: r.env.stage})
	}
	c.prof.Record("MPI_WAIT", startNs, doneNs-startNs)
	return doneNs - startNs
}

// await blocks until r is matched and reports whether it already was.
func (m *mailbox) await(w *World, r *Request) (already bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	already = r.matched
	for !r.matched {
		w.checkAborted()
		m.cond.Wait()
	}
	return already
}

// WaitAll completes every request and returns the nanoseconds it was
// blocked: the sum of the waits' blocked intervals.
func WaitAll(reqs ...*Request) int64 {
	var ns int64
	for _, r := range reqs {
		ns += r.Wait()
	}
	return ns
}

// RecvAny blocks until a message with any of the given tags arrives from
// any rank, returning its source, tag and payload. It serves the
// server-thread pattern of the MPI-I/O caching layer (an I/O thread
// handling "both local and remote requests", paper §5.1) — the analogue of
// MPI_ANY_SOURCE receives. It takes unexpected messages only (a send that
// finds a posted Irecv for its (source, tag) fills that instead), and the
// payload it returns belongs to the caller: its buffer never returns to
// the free list.
func (c *Comm) RecvAny(tags []int) (src, tag int, data []float64) {
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		c.world.checkAborted()
		for i := range box.msgs {
			m := &box.msgs[i]
			for _, t := range tags {
				if m.tag == t {
					src, tag, data = m.src, m.tag, m.data
					box.msgs = slices.Delete(box.msgs, i, i+1)
					// Counted as received; idle time in the server loop is
					// deliberately not charged as wait time.
					c.world.bytesRecv[c.rank].Add(int64(8 * len(data)))
					c.world.msgsRecv[c.rank].Add(1)
					return src, tag, data
				}
			}
		}
		box.cond.Wait()
	}
}

// Send is a blocking send (completes immediately under buffered semantics).
func (c *Comm) Send(dst, tag int, data []float64) { c.Isend(dst, tag, data).Wait() }

// Recv is a blocking receive.
func (c *Comm) Recv(src, tag int, buf []float64) { c.Irecv(src, tag, buf).Wait() }

// Op is a reduction operator.
type Op int

// Reduction operators supported by Allreduce.
const (
	Sum Op = iota
	Min
	Max
)

func (o Op) combine(dst, src []float64) {
	switch o {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// collective is the state of the one collective protocol (see gather):
// a slot per rank and an entry/exit two-phase count so back-to-back
// collectives cannot race.
type collective struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	entered int
	exited  int
	phase   int // 0: gathering, 1: draining
	slots   [][]float64
}

func newCollective(n int) *collective {
	c := &collective{n: n, slots: make([][]float64, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// gather is the protocol under every collective: each rank deposits a copy
// of vals in its slot, waits for the last rank to arrive, and leaves with
// all slots indexed by rank.
func (c *Comm) gather(vals []float64) [][]float64 {
	col := c.world.coll
	// The deferred unlock keeps the collective mutex panic-safe: an abort
	// unwinds every waiter through checkAborted, and a leaked lock here
	// would park the remaining ranks inside cond.Wait forever.
	col.mu.Lock()
	defer col.mu.Unlock()
	for col.phase == 1 { // previous collective still draining
		c.world.checkAborted()
		col.cond.Wait()
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	col.slots[c.rank] = cp
	col.entered++
	if col.entered == col.n {
		col.phase = 1
		col.cond.Broadcast()
	} else {
		for col.phase == 0 {
			c.world.checkAborted()
			col.cond.Wait()
		}
	}
	out := make([][]float64, col.n)
	copy(out, col.slots)
	col.exited++
	if col.exited == col.n {
		col.entered, col.exited, col.phase = 0, 0, 0
		col.cond.Broadcast()
	}
	return out
}

// chargeColl counts the bytes a collective is modelled as sending from this
// rank; a rank alone in its world sends nothing.
func (c *Comm) chargeColl(bytes int) {
	if c.world.n > 1 {
		c.world.bytesSent[c.rank].Add(int64(bytes))
	}
}

// reduce is the one reduction: gather every rank's vals, then fold them
// into vals in ascending rank order, so every rank gets the
// bitwise-identical result whatever order the ranks arrived in. bytes is
// what the call is charged as having sent; it is counted as one allreduce
// and traced as kind, and the gather's enter-to-exit interval is charged to
// the rank's collective-time counter and recorded as the span named span. A
// length mismatch is an error on every rank.
func (c *Comm) reduce(vals []float64, combine func(dst, src []float64), kind, span string, bytes int) error {
	enterNs := prof.Now()
	slots := c.gather(vals)
	exitNs := prof.Now()
	c.prof.Record(span, enterNs, exitNs-enterNs)
	c.world.collNs[c.rank].Add(exitNs - enterNs)
	c.world.allreduces[c.rank].Add(1)
	c.chargeColl(bytes)
	for r := range slots {
		if len(slots[r]) != len(vals) {
			return fmt.Errorf("comm: %s length mismatch across ranks: rank %d contributed %d values, rank %d posted %d",
				kind, r, len(slots[r]), c.rank, len(vals))
		}
	}
	if len(vals) > 0 { // zero-length is a pure synchronization point
		copy(vals, slots[0])
		for r := 1; r < len(slots); r++ {
			combine(vals, slots[r])
		}
	}
	c.recordColl(kind, bytes, enterNs, exitNs)
	return nil
}

// Allreduce combines vals across all ranks with op, folding in ascending
// rank order (so a floating-point Sum does not depend on which rank arrives
// first); on return vals holds the reduced result on every rank. All ranks
// must call with equal lengths; a mismatch panics. Charged as a tree
// allreduce, O(2·len) per rank.
func (c *Comm) Allreduce(op Op, vals []float64) {
	if err := c.reduce(vals, op.combine, KindAllreduce, "MPI_ALLREDUCE", 16*len(vals)); err != nil {
		panic(err)
	}
}

// Barrier blocks until all ranks arrive: a zero-length reduce.
func (c *Comm) Barrier() {
	c.world.barriers[c.rank].Add(1)
	if err := c.reduce(nil, nil, KindBarrier, "MPI_BARRIER", 16); err != nil {
		panic(err)
	}
}

// AllreduceOrdered is Allreduce with a caller-supplied combiner and an
// error instead of a panic: a length mismatch is reported on every rank and
// the caller decides whether it is fatal. A zero-length payload is a pure
// synchronization point and succeeds.
func (c *Comm) AllreduceOrdered(vals []float64, combine func(dst, src []float64)) error {
	return c.reduce(vals, combine, KindAllreduceOrdered, "MPI_ALLGATHER", 8*len(vals))
}
