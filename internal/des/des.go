// Package des provides the discrete-event simulation substrate shared by
// the SimMR engine, the cluster testbed emulator, and the Mumak baseline.
//
// The substrate is deliberately small: simulated time is a float64 number
// of seconds, events carry an opaque payload, and the event queue is a
// 4-ary heap ordered by (time, sequence number) so that events scheduled
// at the same instant fire in FIFO order, merged with an optional
// pre-sorted arrival lane. Determinism is a design goal: given the same
// schedule of events, a simulation always unfolds identically — the
// (time, seq) key is a total order, so the pop sequence is independent
// of the heap's internal shape and of whether an event waited in the
// heap or in the lane.
package des

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since simulation start.
type Time = float64

// Infinity is a sentinel time further in the future than any real event.
// The SimMR engine uses it for "filler" shuffle tasks whose duration is
// unknown until the map stage completes.
const Infinity Time = math.MaxFloat64

// Event is a scheduled occurrence in simulated time. Type and JobID are
// interpreted by the simulator that owns the queue. Task carries a task
// index without boxing (the hot-path payload of the SimMR engine);
// Payload carries any other state the handler needs.
type Event struct {
	Time    Time
	Type    int
	JobID   int
	Task    int
	Payload any

	seq   uint64 // tie-breaker: insertion order
	index int    // heap index; -1 once popped or canceled, -2 once freed
}

// Lane is a read-only run of same-type events — in the SimMR engine,
// a trace's job arrivals — that a queue merges against its heap instead
// of holding one heap entry per event. Entries must be ordered by
// nondecreasing time; ties keep lane order. A Lane is never modified by
// the queue, so queues (and their clones) may share one.
type Lane interface {
	// Len returns the number of entries.
	Len() int
	// At returns the time and job ID of the k-th entry.
	At(k int) (t Time, jobID int)
}

// freedIndex marks an event returned to the queue's free list.
const freedIndex = -2

// Scheduled reports whether the event is still pending in a queue.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 }

// HeapPos returns the event's current heap position, or -1 if the
// event is not scheduled. Positions pair with PendingAt under the
// CloneInto contract: a handle h into a cloned queue remaps to
// clone.PendingAt(h.HeapPos()).
func (e *Event) HeapPos() int {
	if e.index < 0 {
		return -1
	}
	return e.index
}

// String renders the event for logs and test failures.
func (e *Event) String() string {
	return fmt.Sprintf("event{t=%.3f type=%d job=%d}", e.Time, e.Type, e.JobID)
}

// EventQueue is a priority queue of events ordered by time, with FIFO
// ordering among events at equal times. The zero value is ready to use.
//
// Pending events live in two places. Pushed events sit in a heap. A
// Lane installed by SetLane sits beside it as a cursor over entries the
// queue never copies: Pop and Peek compare the lane's next entry with
// the heap top and take the lane's on a time tie. SetLane requires an
// empty queue and gives the lane the next Len() sequence numbers, so
// every later push sorts after every lane entry at equal times, and the
// merged pop order is exactly the (Time, seq) order the heap would give
// had each lane entry been pushed up front. "Pending" counts both:
// Len, HighWater and the depth the engine samples include lane entries
// not yet popped, as they did when those entries were pushed. Lane
// entries are not individually addressable — they cannot be updated or
// removed, and PendingAt does not reach them.
//
// The backing store is a 4-ary heap specialized for *Event: sift-up and
// sift-down are concrete methods moving pointers through a hole (no
// heap.Interface, no `any` boxing, no dynamic Less/Swap dispatch per
// level), and the wider fan-out halves the tree depth relative to a
// binary heap, trading cheap in-cache-line sibling comparisons for
// expensive cross-level cache misses.
//
// Events are slab-allocated in chunks and recycled through a free list:
// a simulator that calls Free on events it has finished handling runs
// near-zero-alloc in steady state, because the live-event population
// (bounded by slots, plus arrivals when they are pushed rather than
// laned) is far smaller than the total event count. Queues are not
// safe for concurrent use; every concurrent simulation owns its own
// queue.
type EventQueue struct {
	h       []*Event
	nextSeq uint64
	fired   uint64
	hiWater int

	// The lane: entries laneK..laneN-1 are pending, entry k carries seq
	// laneSeq+k, and (laneT, laneID) caches At(laneK) while laneK < laneN.
	lane    Lane
	laneTyp int
	laneN   int
	laneK   int
	laneSeq uint64
	laneT   Time
	laneID  int
	// view is what Peek returns for the lane's next entry.
	view Event

	slab []Event  // tail of the current allocation chunk
	free []*Event // recycled events, reused before the slab grows
}

// slabChunk is the event-slab allocation granularity. One chunk covers
// the steady-state live-event population of typical replays (cluster
// slots plus a few same-instant events), so most runs allocate one or
// two chunks total instead of one Event per fired event.
const slabChunk = 256

// alloc hands out an event from the free list or the slab.
func (q *EventQueue) alloc() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	if len(q.slab) == 0 {
		q.slab = make([]Event, slabChunk)
	}
	e := &q.slab[0]
	q.slab = q.slab[1:]
	return e
}

// Free recycles an event that has been popped (or removed) and fully
// handled. The caller must not retain the pointer afterwards: the queue
// will reuse the Event for a future Push. Freeing a still-scheduled
// event or freeing twice is a programming error and panics.
func (q *EventQueue) Free(e *Event) {
	if e.index >= 0 {
		panic("des: Free on scheduled event")
	}
	if e.index == freedIndex {
		panic("des: double Free")
	}
	e.index = freedIndex
	e.Payload = nil
	q.free = append(q.free, e)
}

// Reset empties the queue for reuse by a fresh simulation run: pending
// events are recycled into the free list, and the sequence, fired, and
// high-water counters rewind to zero so a reused queue is
// indistinguishable from a new one. The slab and free list are retained
// — that is the point of reuse: the next run draws from memory already
// sized to the previous run's live-event population instead of
// allocating chunks again.
//
// Reset invalidates every outstanding *Event obtained from this queue;
// callers must not Free (or otherwise touch) pre-Reset events
// afterwards. Popped events that were never Freed are abandoned to the
// garbage collector.
func (q *EventQueue) Reset() {
	for i, e := range q.h {
		q.h[i] = nil
		e.index = freedIndex
		e.Payload = nil
		q.free = append(q.free, e)
	}
	q.h = q.h[:0]
	q.nextSeq = 0
	q.fired = 0
	q.hiWater = 0
	q.lane = nil // do not pin the lane's backing data
	q.laneN, q.laneK = 0, 0
}

// CloneInto reproduces the queue's complete pending state into dst,
// recycling dst's existing storage (heap slice, slab, free list) the
// way Reset does — the copy-on-write fork path hands a pooled engine's
// queue here so steady-state forking allocates nothing once warmed.
//
// The clone preserves everything that determines future behavior:
// every pending event's (Time, seq) key, payload, and — deliberately —
// its heap position, the lane cursor, plus the nextSeq, fired, and
// high-water counters. The lane itself is shared, not copied: a clone
// costs O(heap events) whatever the number of pending lane entries.
// Position preservation is a contract, not an accident: PendingAt(i)
// on the clone is the clone's copy of PendingAt(i) on the source, so a
// simulator holding *Event handles into the source (running-task
// departures, filler reduces) can remap each handle h to
// dst.PendingAt(h index) in O(1) without any translation table.
// Payloads are copied shallowly; the SimMR engine only schedules nil
// payloads, and callers with pointer payloads must remap them.
//
// The source is not modified and may be cloned again; dst's previously
// outstanding events are invalidated exactly as by Reset.
func (q *EventQueue) CloneInto(dst *EventQueue) {
	dst.Reset()
	n := len(q.h)
	if cap(dst.h) < n {
		dst.h = make([]*Event, n)
	} else {
		dst.h = dst.h[:n]
	}
	for i, e := range q.h {
		c := dst.alloc()
		*c = *e // index == i already: e sits at position i in the source heap
		dst.h[i] = c
	}
	dst.nextSeq = q.nextSeq
	dst.fired = q.fired
	dst.hiWater = q.hiWater
	dst.lane, dst.laneTyp = q.lane, q.laneTyp
	dst.laneN, dst.laneK, dst.laneSeq = q.laneN, q.laneK, q.laneSeq
	dst.laneT, dst.laneID = q.laneT, q.laneID
}

// PendingAt returns the pending event at heap position i (0 <= i <
// Len()-LaneLen()). Positions are heap-internal and change as events
// push and pop; the accessor exists for the CloneInto remapping
// contract above, where source and clone positions coincide by
// construction.
func (q *EventQueue) PendingAt(i int) *Event { return q.h[i] }

// Len returns the number of pending events, lane entries included.
func (q *EventQueue) Len() int { return len(q.h) + q.laneN - q.laneK }

// LaneLen returns the number of lane entries not yet popped.
func (q *EventQueue) LaneLen() int { return q.laneN - q.laneK }

// SetLane installs l as the queue's lane; its entries pop as events of
// type typ with nil payloads. The queue must be empty (a freshly Reset
// queue, as the engine installs its arrivals). The lane takes the next
// l.Len() sequence numbers and counts toward Len and HighWater at once.
func (q *EventQueue) SetLane(l Lane, typ int) {
	if q.Len() != 0 {
		panic("des: SetLane on a non-empty EventQueue")
	}
	q.lane, q.laneTyp = l, typ
	q.laneN, q.laneK = l.Len(), 0
	q.laneSeq = q.nextSeq
	q.nextSeq += uint64(q.laneN)
	if q.laneN > 0 {
		q.laneT, q.laneID = l.At(0)
	}
	if q.laneN > q.hiWater {
		q.hiWater = q.laneN
	}
}

// laneFirst reports whether the next event to pop is the lane's: its
// entries win time ties because their seqs precede every heap event's.
func (q *EventQueue) laneFirst() bool {
	return q.laneK < q.laneN && (len(q.h) == 0 || q.laneT <= q.h[0].Time)
}

// Fired returns the total number of events popped so far. It is the
// denominator of the "events per second" throughput metric reported in
// the paper (§I: "SimMR can process over one million events per second").
func (q *EventQueue) Fired() uint64 { return q.fired }

// HighWater returns the peak pending-event population (Len) seen so
// far — the engine's "heap high-water" observability counter. The heap
// itself never holds more than HighWater minus the lane entries popped
// by then, which is what bounds steady-state allocations under the
// slab/free-list discipline.
func (q *EventQueue) HighWater() int { return q.hiWater }

// Push schedules a new event and returns it. The returned pointer can be
// used later with Update or Remove (e.g. to patch a filler shuffle).
func (q *EventQueue) Push(t Time, typ, jobID int, payload any) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Payload: payload, seq: q.nextSeq}
	q.nextSeq++
	q.heapPush(e)
	return e
}

// PushTask schedules an event carrying a task index. Unlike stuffing the
// index into Payload, no interface boxing (and hence no per-event heap
// allocation) occurs — this is the engine's hot path.
func (q *EventQueue) PushTask(t Time, typ, jobID, task int) *Event {
	e := q.alloc()
	*e = Event{Time: t, Type: typ, JobID: jobID, Task: task, seq: q.nextSeq}
	q.nextSeq++
	q.heapPush(e)
	return e
}

// Pop removes and returns the earliest event. It panics if the queue is
// empty; callers must check Len first. A lane entry pops as an event
// drawn from the slab like any other, to be handed back with Free.
func (q *EventQueue) Pop() *Event {
	if q.laneFirst() {
		q.fired++
		e := q.alloc()
		*e = q.laneHead()
		if q.laneK++; q.laneK < q.laneN {
			q.laneT, q.laneID = q.lane.At(q.laneK)
		}
		return e
	}
	if len(q.h) == 0 {
		panic("des: Pop on empty EventQueue")
	}
	q.fired++
	e := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		last.index = 0
		q.down(0)
	}
	e.index = -1
	return e
}

// laneHead is the lane's next entry as an unscheduled event.
func (q *EventQueue) laneHead() Event {
	return Event{Time: q.laneT, Type: q.laneTyp, JobID: q.laneID, seq: q.laneSeq + uint64(q.laneK), index: -1}
}

// Peek returns the earliest event without removing it, or nil if empty.
// When that is a lane entry, the result is a read-only view, valid
// until the next queue call: it is not Scheduled, and must not be
// passed to Update, Remove or Free.
func (q *EventQueue) Peek() *Event {
	if q.laneFirst() {
		q.view = q.laneHead()
		q.view.index = freedIndex // Free panics on it
		return &q.view
	}
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Update changes the firing time of a pending event and restores heap
// order. It panics if the event is no longer scheduled.
func (q *EventQueue) Update(e *Event, t Time) {
	if !e.Scheduled() {
		panic("des: Update on unscheduled event")
	}
	e.Time = t
	q.fix(e.index)
}

// Remove cancels a pending event. It panics if the event is no longer
// scheduled.
func (q *EventQueue) Remove(e *Event) {
	if !e.Scheduled() {
		panic("des: Remove on unscheduled event")
	}
	i := e.index
	n := len(q.h) - 1
	if i != n {
		last := q.h[n]
		q.h[i] = last
		last.index = i
	}
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.fix(i)
	}
	e.index = -1
}

// eventBefore is the strict (Time, seq) order. seq is unique per queue
// generation, so this is a total order and every correct heap pops the
// same sequence — the property that keeps replays byte-identical across
// queue implementations.
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// heapArity is the heap fan-out. Four children per node halves the
// depth of the sift paths relative to a binary heap; the extra sibling
// comparisons per level stay within one or two cache lines of h.
const heapArity = 4

// heapPush appends e and sifts it up, maintaining the high-water mark.
func (q *EventQueue) heapPush(e *Event) {
	e.index = len(q.h)
	q.h = append(q.h, e)
	q.up(e.index)
	if n := q.Len(); n > q.hiWater {
		q.hiWater = n
	}
}

// up sifts the event at i toward the root, moving parents down through
// the hole instead of swapping (one write per level instead of three).
func (q *EventQueue) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		pe := q.h[p]
		if !eventBefore(e, pe) {
			break
		}
		q.h[i] = pe
		pe.index = i
		i = p
	}
	q.h[i] = e
	e.index = i
}

// down sifts the event at i toward the leaves, pulling the smallest of
// up to heapArity children up through the hole. It reports whether the
// event moved.
func (q *EventQueue) down(i int) bool {
	n := len(q.h)
	e := q.h[i]
	i0 := i
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min := c
		me := q.h[c]
		for j := c + 1; j < end; j++ {
			if je := q.h[j]; eventBefore(je, me) {
				min, me = j, je
			}
		}
		if !eventBefore(me, e) {
			break
		}
		q.h[i] = me
		me.index = i
		i = min
	}
	q.h[i] = e
	e.index = i
	return i != i0
}

// fix restores heap order after the key at i changed in either
// direction (container/heap.Fix semantics: try down, else up).
func (q *EventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// Clock tracks the current simulated time and enforces monotonicity.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to t. Moving backward is a
// programming error and panics: a discrete-event simulation must consume
// events in nondecreasing time order.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("des: clock moved backward: %.9f -> %.9f", c.now, t))
	}
	c.now = t
}

// Reset rewinds the clock to zero for reuse across simulation runs.
func (c *Clock) Reset() { c.now = 0 }
