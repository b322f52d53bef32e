package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock=%v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.RunUntilIdle()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("clock=%v, want 0", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	cancel := s.Schedule(time.Millisecond, func() { fired = true })
	cancel()
	s.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	cancel() // double-cancel is a no-op
}

func TestRunHorizon(t *testing.T) {
	s := NewSim()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired=%v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock=%v", s.Now())
	}
	// Horizon with no events still advances the clock.
	s.Run(10 * time.Second)
	if s.Now() != 10*time.Second || len(fired) != 3 {
		t.Fatalf("clock=%v fired=%v", s.Now(), fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []time.Duration
	s.Schedule(time.Second, func() {
		times = append(times, s.Now())
		s.Schedule(time.Second, func() {
			times = append(times, s.Now())
		})
	})
	s.RunUntilIdle()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times=%v", times)
	}
}

func TestPending(t *testing.T) {
	s := NewSim()
	c1 := s.Schedule(time.Second, func() {})
	s.Schedule(time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending=%d", s.Pending())
	}
	c1()
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel=%d", s.Pending())
	}
	s.RunUntilIdle()
	if s.Pending() != 0 {
		t.Fatalf("Pending after run=%d", s.Pending())
	}
}

func TestStepReturnsFalseWhenIdle(t *testing.T) {
	s := NewSim()
	if s.Step() {
		t.Fatal("Step on empty sim should return false")
	}
	s.Schedule(0, func() {})
	if !s.Step() {
		t.Fatal("Step with one event should return true")
	}
	if s.Step() {
		t.Fatal("Step after draining should return false")
	}
}

// TestSameTimestampOrderDeterministic runs the same randomized schedule —
// many events piled onto few distinct timestamps, with nested re-scheduling —
// twice from the same seed and requires the dispatch sequences to match
// exactly. This is the property the whole trace-determinism story rests on:
// ties are broken by insertion order, never by heap internals.
func TestSameTimestampOrderDeterministic(t *testing.T) {
	dispatch := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			// Only 5 distinct timestamps => heavy tie-breaking.
			at := time.Duration(rng.Intn(5)) * time.Millisecond
			s.Schedule(at, func() {
				order = append(order, i)
				if i%7 == 0 {
					// Nested event at the current timestamp: must run
					// after everything already queued for this instant.
					s.Schedule(0, func() { order = append(order, 1000+i) })
				}
			})
		}
		s.RunUntilIdle()
		return order
	}
	a, b := dispatch(42), dispatch(42)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// lazyHeap is the reference implementation the indexed heap replaced:
// cancellation only flags the event, and flagged events are skipped when
// their timestamp pops. The property test below checks the indexed heap
// fires the exact same sequence under random schedule/cancel interleavings.
type lazyHeap struct {
	now    time.Duration
	events []*lazyEvent
	seq    uint64
}

type lazyEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

func (l *lazyHeap) schedule(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	e := &lazyEvent{at: l.now + d, seq: l.seq, fn: fn}
	l.seq++
	l.events = append(l.events, e)
	l.up(len(l.events) - 1)
	return func() { e.cancelled = true }
}

func (l *lazyHeap) less(i, j int) bool {
	if l.events[i].at != l.events[j].at {
		return l.events[i].at < l.events[j].at
	}
	return l.events[i].seq < l.events[j].seq
}

func (l *lazyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !l.less(i, p) {
			break
		}
		l.events[i], l.events[p] = l.events[p], l.events[i]
		i = p
	}
}

func (l *lazyHeap) pop() *lazyEvent {
	e := l.events[0]
	n := len(l.events) - 1
	l.events[0] = l.events[n]
	l.events = l.events[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && l.less(c+1, c) {
			c++
		}
		if l.less(i, c) {
			break
		}
		l.events[i], l.events[c] = l.events[c], l.events[i]
		i = c
	}
	return e
}

func (l *lazyHeap) runUntilIdle() {
	for len(l.events) > 0 {
		e := l.pop()
		if e.cancelled {
			continue
		}
		l.now = e.at
		e.fn()
	}
}

// TestIndexedHeapMatchesLazyHeap drives both implementations through the
// same randomized schedule/cancel interleaving (including cancels issued
// from inside callbacks and nested scheduling) and requires identical firing
// sequences. This is the determinism contract of the rewrite: true removal
// on cancel must never change the (at, seq) dispatch order.
func TestIndexedHeapMatchesLazyHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		run := func(schedule func(time.Duration, func()) func(), drain func()) []int {
			script := rand.New(rand.NewSource(seed))
			rng := rand.New(rand.NewSource(seed + 1000))
			var order []int
			var cancels []func()
			var rec func(depth, id int) func()
			rec = func(depth, id int) func() {
				return func() {
					order = append(order, id)
					if depth < 2 && rng.Intn(3) == 0 {
						c := schedule(time.Duration(rng.Intn(4))*time.Millisecond, rec(depth+1, id+10000))
						cancels = append(cancels, c)
					}
					if len(cancels) > 0 && rng.Intn(3) == 0 {
						cancels[rng.Intn(len(cancels))]()
					}
				}
			}
			for i := 0; i < 300; i++ {
				c := schedule(time.Duration(script.Intn(10))*time.Millisecond, rec(0, i))
				cancels = append(cancels, c)
				if script.Intn(4) == 0 {
					cancels[script.Intn(len(cancels))]()
				}
			}
			drain()
			return order
		}
		s := NewSim()
		got := run(s.Schedule, s.RunUntilIdle)
		l := &lazyHeap{}
		want := run(l.schedule, l.runUntilIdle)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch diverges at %d: %d vs %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestStaleCancelAfterReuse holds a cancel closure across its event firing
// and a freelist reuse of the event struct: the stale cancel must not kill
// the new incarnation.
func TestStaleCancelAfterReuse(t *testing.T) {
	s := NewSim()
	stale := s.Schedule(time.Millisecond, func() {})
	s.RunUntilIdle() // fires; the event struct goes to the freelist

	fired := false
	s.Schedule(time.Millisecond, func() { fired = true }) // reuses the struct
	stale()                                               // must be a no-op
	if s.Pending() != 1 {
		t.Fatalf("stale cancel removed a live event: Pending=%d", s.Pending())
	}
	s.RunUntilIdle()
	if !fired {
		t.Fatal("event reusing a recycled struct did not fire")
	}
}

// TestCancelRemovesImmediately verifies cancellation truly removes the event
// rather than leaving a tombstone: the queue length drops at cancel time.
func TestCancelRemovesImmediately(t *testing.T) {
	s := NewSim()
	var cancels []func()
	for i := 0; i < 100; i++ {
		cancels = append(cancels, s.Schedule(time.Hour, func() {}))
	}
	for i, c := range cancels {
		c()
		if got, want := s.Pending(), 100-i-1; got != want {
			t.Fatalf("after %d cancels Pending=%d, want %d", i+1, got, want)
		}
	}
}

// TestScheduleFireAllocs pins the steady-state Schedule→fire allocation
// budget: with the freelist warm, one Schedule+Step cycle allocates only the
// returned cancel closure.
func TestScheduleFireAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the freelist and the heap's backing array
		s.Schedule(0, fn)
	}
	s.RunUntilIdle()
	avg := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if avg > 1.1 {
		t.Fatalf("Schedule→fire allocates %.2f objects/op, want <= 1 (the cancel closure)", avg)
	}
}

// TestCancelDuringDispatch cancels a same-timestamp event from inside an
// earlier callback: the cancelled callback must never fire even though it
// was already in the heap when its timestamp arrived.
func TestCancelDuringDispatch(t *testing.T) {
	s := NewSim()
	fired := false
	var cancel func()
	s.Schedule(time.Millisecond, func() { cancel() })
	cancel = s.Schedule(time.Millisecond, func() { fired = true })
	s.RunUntilIdle()
	if fired {
		t.Fatal("event cancelled during dispatch of its own timestamp still fired")
	}

	// Cancelling from a callback scheduled earlier in *time* (not just
	// sequence) must also hold across Run horizons.
	s2 := NewSim()
	fired2 := false
	c2 := s2.Schedule(2*time.Millisecond, func() { fired2 = true })
	s2.Schedule(time.Millisecond, func() { c2() })
	s2.Run(5 * time.Millisecond)
	if fired2 {
		t.Fatal("event cancelled one tick earlier still fired")
	}
	if s2.Now() != 5*time.Millisecond {
		t.Fatalf("clock=%v, want 5ms", s2.Now())
	}
}

// TestEventQueueMatchesSortOrder is a differential test of the typed event
// heap against the specification: at every step, the event that fires is
// the pending one that sorts first by (at, seq). A random script
// interleaves Schedule, ScheduleCall, Step, Run horizons, nested
// scheduling from callbacks, and cancels aimed at the queue head, the queue
// tail, a random pending event, and events that already fired or were
// cancelled — whose structs the freelist has usually handed to a newer
// event, so only the generation check keeps those cancels harmless.
func TestEventQueueMatchesSortOrder(t *testing.T) {
	type rec struct {
		at      time.Duration
		seq     uint64
		cancel  func() // nil for ScheduleCall events
		pending bool
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var (
			recs  []*rec
			seq   uint64
			fired []int // rec indices in firing order
		)
		var schedule func(nested bool)
		fire := func(id int) {
			fired = append(fired, id)
			if rng.Intn(4) == 0 {
				schedule(true)
			}
		}
		call := func(arg any) { fire(arg.(int)) }
		schedule = func(nested bool) {
			d := time.Duration(rng.Intn(6)-1) * time.Millisecond // includes a negative delay
			at := s.Now() + max(d, 0)
			r := &rec{at: at, seq: seq, pending: true}
			seq++
			id := len(recs)
			recs = append(recs, r)
			if !nested && rng.Intn(3) == 0 {
				s.ScheduleCall(d, call, id)
				return
			}
			r.cancel = s.Schedule(d, func() { fire(id) })
		}
		// head and tail return the pending cancellable event that sorts
		// first or last, or nil.
		pick := func(last bool) *rec {
			var best *rec
			for _, r := range recs {
				if !r.pending || r.cancel == nil {
					continue
				}
				if best == nil || (r.at < best.at || r.at == best.at && r.seq < best.seq) != last {
					best = r
				}
			}
			return best
		}
		cancel := func(r *rec) {
			if r == nil || r.cancel == nil {
				return
			}
			r.cancel()
			r.pending = false
		}
		// check replays the fired events since mark against the model: each
		// must be the minimum of what was pending, and then leaves it.
		check := func(mark int) {
			t.Helper()
			for _, id := range fired[mark:] {
				var want *rec
				wantID := -1
				for i, r := range recs {
					if r.pending && (want == nil || r.at < want.at || r.at == want.at && r.seq < want.seq) {
						want, wantID = r, i
					}
				}
				if id != wantID {
					t.Fatalf("seed %d: event %d fired, want %d (the (at, seq) minimum)", seed, id, wantID)
				}
				want.pending = false
			}
		}
		for op := 0; op < 600; op++ {
			mark := len(fired)
			switch k := rng.Intn(10); {
			case k < 4:
				schedule(false)
			case k == 4:
				cancel(pick(false))
			case k == 5:
				cancel(pick(true))
			case k == 6:
				if len(recs) > 0 {
					r := recs[rng.Intn(len(recs))]
					if r.cancel != nil {
						r.cancel() // pending, fired or cancelled: all legal
						r.pending = false
					}
				}
			case k < 9:
				s.Step()
			default:
				s.Run(s.Now() + time.Duration(rng.Intn(3))*time.Millisecond)
			}
			// Nested schedules inside callbacks append recs while the
			// model catches up, so the check runs after the op.
			check(mark)
			want := 0
			for _, r := range recs {
				if r.pending {
					want++
				}
			}
			if s.Pending() != want {
				t.Fatalf("seed %d op %d: Pending=%d, model has %d", seed, op, s.Pending(), want)
			}
		}
		mark := len(fired)
		s.RunUntilIdle()
		check(mark)
		for i, r := range recs {
			if r.pending {
				t.Fatalf("seed %d: event %d never fired", seed, i)
			}
		}
	}
}

// BenchmarkEventQueue holds the pending set at a fixed size. Each op
// cancels the event scheduled 256 ops earlier, schedules a cancellable
// event, tops the queue up with ScheduleCall events, and runs it to its
// earliest timestamp; every delay is random up to 2 s. The 1.5k case is the largest pending set a
// 200-peer churn run reaches (its probe, pong and delivery timers); the 50k
// case is a 30 times larger world.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{1500, 50000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) { benchEventQueue(b, pending) })
	}
}

func benchEventQueue(b *testing.B, pending int) {
	rng := rand.New(rand.NewSource(1))
	s := NewSim()
	fn := func() {}
	call := func(any) {}
	delay := func() time.Duration { return time.Duration(1 + rng.Int63n(int64(2*time.Second))) }
	var recent [256]func()
	for i := range recent {
		recent[i] = s.Schedule(delay(), fn)
	}
	for s.Pending() < pending {
		s.ScheduleCall(delay(), call, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recent)
		recent[j]()
		recent[j] = s.Schedule(delay(), fn)
		for s.Pending() <= pending {
			s.ScheduleCall(delay(), call, nil)
		}
		s.Run(s.events[0].at)
	}
}

// TestHeapEntryLess checks the borrow-chain comparison against the plain
// (at, seq) order on extreme and neighbouring values of both fields.
func TestHeapEntryLess(t *testing.T) {
	ats := []time.Duration{math.MinInt64, -1, 0, 1, time.Second, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	var es []heapEntry
	for _, at := range ats {
		for _, seq := range seqs {
			es = append(es, heapEntry{at: at, seq: seq})
		}
	}
	for _, a := range es {
		for _, b := range es {
			want := a.at < b.at || a.at == b.at && a.seq < b.seq
			if got := a.less(b); got != want {
				t.Fatalf("(%d,%d).less(%d,%d) = %v, want %v", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}
