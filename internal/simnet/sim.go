// Package simnet is SpiderNet's deterministic discrete-event simulation
// runtime: a virtual clock with an event heap, and a message-passing network
// of peers implementing the p2p.Node interface. It replaces the paper's C++
// event-driven P2P overlay simulator.
package simnet

import "time"

// Sim is a discrete-event scheduler over a virtual clock. It is not safe for
// concurrent use: everything runs in the single simulation goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// The event queue is an index-tracked binary heap: every queued event knows
// its own heap slot, so cancellation removes the event immediately (no
// tombstones accumulate across a long soak) and Pending is the heap length.
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
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
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
	e.at = s.now + d
	e.seq = s.seq
	s.seq++
	s.events.push(e)
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
	e := s.events.pop()
	s.now = e.at
	fn, call, arg := e.fn, e.call, e.arg
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
	return true
}

// Run executes all events with timestamps <= until, then advances the clock
// to until.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 {
		if s.events[0].at > until {
			break
		}
		e := s.events.pop()
		s.now = e.at
		fn, call, arg := e.fn, e.call, e.arg
		s.recycle(e)
		if fn != nil {
			fn()
		} else {
			call(arg)
		}
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

// eventHeap is a binary min-heap of events ordered by (at, seq), a total
// order, so the pop sequence is fully determined by the pushes. Each event
// records its slot in idx so remove can take it out of the middle.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) push(e *event) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.up(e.idx)
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() *event {
	return h.remove(0)
}

// remove takes the event in slot i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	e := old[i]
	old.swap(i, n)
	old[n] = nil
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	e.idx = -1
	return e
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts slot i0 toward the leaves and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	n := len(h)
	i := i0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
