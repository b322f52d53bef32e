// Package simnet is SpiderNet's deterministic discrete-event simulation
// runtime: a virtual clock with an event queue, and a message-passing network
// of peers implementing the p2p.Node interface. It replaces the paper's C++
// event-driven P2P overlay simulator.
package simnet

import (
	"math/bits"
	"time"
)

// Sim is a discrete-event scheduler over a virtual clock. It is not safe for
// concurrent use: everything runs in the single simulation goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// The event queue is an index-tracked 4-ary heap that stores each event's
// (at, seq) key inline next to its pointer, so sifting compares keys without
// dereferencing events. Every queued event knows its own heap slot, so
// cancellation removes the event immediately (no tombstones accumulate
// across a long soak) and Pending is the heap length.
// Fired and cancelled events return to a freelist and are reused by later
// Schedule calls, so the steady-state Schedule→fire path allocates only the
// returned cancel closure — and the ScheduleCall path not even that.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	free   []*event
}

type event struct {
	fn func()
	// call/arg is the allocation-free alternative to fn used by
	// ScheduleCall: a long-lived function value applied to a per-event
	// argument, so the hot send→deliver path creates no closure. Exactly
	// one of fn and call is set.
	call func(any)
	arg  any
	idx  int    // heap slot; -1 once fired or cancelled
	gen  uint64 // incremented on recycle so stale cancel closures are no-ops
}

// NewSim returns a simulator with the clock at zero and no pending events.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Pending returns the number of scheduled events. Cancelled events are
// removed from the queue at cancel time, so this is the live count, O(1).
func (s *Sim) Pending() int { return len(s.events) }

// Schedule runs fn after delay d of virtual time. Negative delays are
// clamped to zero. The returned function cancels the event if it has not yet
// fired; calling it after the event fired (or twice) is a no-op.
func (s *Sim) Schedule(d time.Duration, fn func()) func() {
	e := s.enqueue(d)
	e.fn = fn
	gen := e.gen
	return func() { s.cancel(e, gen) }
}

// ScheduleCall runs call(arg) after delay d of virtual time. It is the
// non-cancellable, allocation-free flavor of Schedule for high-volume event
// sources (message delivery): the caller supplies one long-lived call
// function and a per-event argument, so no closure and no cancel func are
// allocated. Ordering is shared with Schedule — one clock, one sequence
// counter, one heap.
func (s *Sim) ScheduleCall(d time.Duration, call func(any), arg any) {
	e := s.enqueue(d)
	e.call = call
	e.arg = arg
}

// enqueue takes an event off the freelist (or allocates one), stamps it, and
// pushes it on the heap. The caller fills in the payload.
func (s *Sim) enqueue(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	s.events.push(heapEntry{at: s.now + d, seq: s.seq, e: e})
	s.seq++
	return e
}

// cancel removes e from the queue if it is still the incarnation the cancel
// closure was minted for. The generation check makes stale closures (held
// across the event firing and its struct being reused) harmless.
func (s *Sim) cancel(e *event, gen uint64) {
	if e.gen != gen || e.idx < 0 {
		return
	}
	s.events.remove(e.idx)
	s.recycle(e)
}

// recycle retires a fired or cancelled event onto the freelist.
func (s *Sim) recycle(e *event) {
	e.fn = nil
	e.call = nil
	e.arg = nil
	e.idx = -1
	e.gen++
	s.free = append(s.free, e)
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It returns false if no events remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.fire()
	return true
}

// fire pops the earliest event, advances the clock to it, and runs it. The
// queue must not be empty.
func (s *Sim) fire() {
	at, e := s.events.pop()
	s.now = at
	fn, call, arg := e.fn, e.call, e.arg
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
}

// Run executes all events with timestamps <= until, then advances the clock
// to until.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.fire()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes events until none remain. Protocols with periodic
// timers never go idle; use Run with a horizon for those.
func (s *Sim) RunUntilIdle() {
	for s.Step() {
	}
}

// heapEntry is one heap slot: the event's ordering key, stored inline so
// comparisons touch only the heap's own array, and the event it orders.
type heapEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	e   *event
}

// less orders entries by (at, seq).
func (a heapEntry) less(b heapEntry) bool { return a.before(b) != 0 }

// before reports a.less(b) as 1 or 0. It compares (at, seq) as one 128-bit
// number, at with its sign bit flipped in the high word, through a borrow
// chain, so down can pick the smallest child with a mask instead of a
// branch: which child is smallest is data-dependent, and the branching
// version cost about a third more per BenchmarkEventQueue op.
func (a heapEntry) before(b heapEntry) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return borrow
}

// eventHeap is a 4-ary min-heap ordered by (at, seq), a total order, so the
// pop sequence is fully determined by the pushes whatever the heap's arity.
// Slot i's children are 4i+1..4i+4. The sifts move a hole and write each
// displaced entry once, updating its event's idx so remove can take an event
// out of the middle.
type eventHeap []heapEntry

func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, heapEntry{})
	h.up(len(*h)-1, x)
}

// pop removes the earliest event and returns it with its time. The heap must
// not be empty.
func (h *eventHeap) pop() (time.Duration, *event) {
	at := (*h)[0].at
	return at, h.remove(0)
}

// remove takes the event in slot i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	e := old[i].e
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n && h.down(i, last) == i {
		h.up(i, last)
	}
	e.idx = -1
	return e
}

// up fills the hole at slot j with x, moving x toward the root past every
// ancestor it sorts before.
func (h eventHeap) up(j int, x heapEntry) {
	for j > 0 {
		p := (j - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[j] = h[p]
		h[j].e.idx = j
		j = p
	}
	h[j] = x
	x.e.idx = j
}

// down fills the hole at slot j with x, moving x toward the leaves past
// every smallest child that sorts before it, and returns x's final slot.
func (h eventHeap) down(j int, x heapEntry) int {
	n := len(h)
	for {
		c := 4*j + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			m += (k - m) & -int(h[k].before(h[m]))
		}
		if !h[m].less(x) {
			break
		}
		h[j] = h[m]
		h[j].e.idx = j
		j = m
	}
	h[j] = x
	x.e.idx = j
	return j
}
