package sched

// This file implements the incrementally maintained ordered index behind
// the BatchPolicy fast path (DESIGN.md §11): a winner tree (complete
// binary tournament) over the active jobs with an eligibility bitset at
// the leaves.
//
// Why a tournament and not a heap or a sorted ring: a job's *key* is
// static for FIFO and the EDF family (arrival, deadline) but its
// *eligibility* flips constantly — pending tasks run out, reduce
// slowstart gates open, MinEDF caps fill up, preemption hands map tasks
// back. A heap ordered by key would have to pop-and-stash ineligible
// winners on every query; an arrival ring would have to rescan past
// head-of-line jobs that are active but currently ineligible. The
// tournament keeps both updates O(log n) and the winner O(1): each leaf
// is one job plus an eligibility bit, each internal node caches the
// better of its children's winners (ineligible leaves lose to anything),
// and a key or eligibility change only recomputes the leaf's root path,
// stopping early at the first node whose winner did not change.
// Fair's fully dynamic key (running-task count) fits the same mold
// because every counter change already flows through a Fix call.

// Tournament is a winner-tree index over a mutating set of jobs. The
// zero value is not ready; build with NewTournament. It is not safe for
// concurrent use — like the engine that owns it, it is single-goroutine
// state.
//
// Determinism: better must be a strict total order over distinct jobs
// (every built-in comparator ends with the job ID), so the winner never
// depends on insertion order or leaf layout.
type Tournament struct {
	better   func(a, b *JobInfo) bool // a beats b; strict total order
	eligible func(*JobInfo) bool

	size int        // leaf capacity, always a power of two
	win  []int32    // 1-based winner tree; win[size+i] is leaf i; -1 = no winner
	jobs []*JobInfo // leaf occupancy
	elig []uint64   // eligibility bitset over leaf slots

	slotOf map[int]int32 // job ID -> leaf slot
	free   []int32       // recycled leaf slots
	next   int32         // next never-used leaf slot
	count  int
}

// minTournamentSize keeps the tree deep enough that growth is rare for
// small queues without wasting memory on tiny runs.
const minTournamentSize = 16

// NewTournament builds an empty index. better reports whether a should
// win over b (both non-nil, both eligible); eligible gates jobs in and
// out of contention without removing them from the tree.
func NewTournament(better func(a, b *JobInfo) bool, eligible func(*JobInfo) bool) *Tournament {
	t := &Tournament{
		better:   better,
		eligible: eligible,
		slotOf:   make(map[int]int32),
	}
	t.alloc(minTournamentSize)
	return t
}

// alloc sizes the tree arrays for the given leaf capacity.
func (t *Tournament) alloc(size int) {
	t.size = size
	t.win = make([]int32, 2*size)
	for i := range t.win {
		t.win[i] = -1
	}
	t.jobs = make([]*JobInfo, size)
	t.elig = make([]uint64, (size+63)/64)
}

// Reset empties the index, retaining its warmed capacity (the engine
// reuse contract: a reset tournament is observationally identical to a
// fresh one).
func (t *Tournament) Reset() {
	for i := range t.jobs {
		t.jobs[i] = nil
	}
	for i := range t.elig {
		t.elig[i] = 0
	}
	for i := range t.win {
		t.win[i] = -1
	}
	clear(t.slotOf)
	t.free = t.free[:0]
	t.next = 0
	t.count = 0
}

// Len returns the number of jobs in the index (eligible or not).
func (t *Tournament) Len() int { return t.count }

// Add inserts a job (idempotent: re-adding an indexed job refreshes it).
func (t *Tournament) Add(j *JobInfo) {
	if _, ok := t.slotOf[j.ID]; ok {
		t.Fix(j)
		return
	}
	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if int(t.next) == t.size {
			t.grow()
		}
		slot = t.next
		t.next++
	}
	t.jobs[slot] = j
	t.slotOf[j.ID] = slot
	t.count++
	t.refresh(slot)
}

// Remove deletes a job from the index; unknown jobs are a no-op.
func (t *Tournament) Remove(j *JobInfo) {
	slot, ok := t.slotOf[j.ID]
	if !ok {
		return
	}
	delete(t.slotOf, j.ID)
	t.jobs[slot] = nil
	t.elig[slot>>6] &^= 1 << (slot & 63)
	t.free = append(t.free, slot)
	t.count--
	t.sift(slot)
}

// Fix re-evaluates a job's eligibility and key after its scheduler-
// visible counters changed. Unknown jobs are a no-op.
func (t *Tournament) Fix(j *JobInfo) {
	if slot, ok := t.slotOf[j.ID]; ok {
		t.refresh(slot)
	}
}

// Best returns the winning (eligible, minimal-under-better) job, or nil.
func (t *Tournament) Best() *JobInfo {
	if r := t.win[1]; r >= 0 {
		return t.jobs[r]
	}
	return nil
}

// refresh recomputes a leaf's eligibility bit and its root path.
func (t *Tournament) refresh(slot int32) {
	if j := t.jobs[slot]; j != nil && t.eligible(j) {
		t.elig[slot>>6] |= 1 << (slot & 63)
	} else {
		t.elig[slot>>6] &^= 1 << (slot & 63)
	}
	t.sift(slot)
}

// sift rebuilds the winner path from a leaf toward the root. It stops
// at the first node whose merged winner is the one already stored there
// and is not the refreshed slot: that node's winner and its key are
// unchanged, so every ancestor's merge is unchanged too. When the slot
// itself wins, its key may have moved (Fair), so the walk continues.
func (t *Tournament) sift(slot int32) {
	v := int(slot) + t.size
	if t.elig[slot>>6]&(1<<(slot&63)) != 0 {
		t.win[v] = slot
	} else {
		t.win[v] = -1
	}
	for v >>= 1; v >= 1; v >>= 1 {
		w := t.merge(t.win[2*v], t.win[2*v+1])
		if w == t.win[v] && w != slot {
			return
		}
		t.win[v] = w
	}
}

// merge picks the winner of two subtree winners (-1 loses to anything).
func (t *Tournament) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if t.better(t.jobs[b], t.jobs[a]) {
		return b
	}
	return a
}

// grow doubles the leaf capacity, preserving slot assignments (slotOf
// entries stay valid) and rebuilding the winner tree bottom-up.
func (t *Tournament) grow() {
	oldJobs, oldElig, oldSize := t.jobs, t.elig, t.size
	t.alloc(2 * oldSize)
	copy(t.jobs, oldJobs)
	copy(t.elig, oldElig)
	for i := 0; i < oldSize; i++ {
		if t.elig[i>>6]&(1<<(i&63)) != 0 {
			t.win[t.size+i] = int32(i)
		}
	}
	for v := t.size - 1; v >= 1; v-- {
		t.win[v] = t.merge(t.win[2*v], t.win[2*v+1])
	}
}
