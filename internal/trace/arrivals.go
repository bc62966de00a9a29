package trace

import (
	"cmp"
	"math"
	"slices"
)

// Arrivals is a trace's jobs in replay order: sorted by arrival time,
// jobs arriving at the same instant in slab order. It is the order in
// which a replay admits them, and it satisfies the event queue's
// des.Lane interface, so the engine streams arrivals from it instead
// of pushing one heap event per job. An Arrivals is immutable; engines,
// sweep cells and forks replaying one trace share it.
type Arrivals struct {
	jobs []*Job
	// order holds the slab index of the k-th arrival; nil when the slab
	// is already in replay order, as Normalize output, synthesized and
	// `.strc` traces are.
	order []int32
}

// Len returns the number of jobs.
func (a *Arrivals) Len() int { return len(a.jobs) }

// At returns the arrival time and ID of the k-th job to arrive.
func (a *Arrivals) At(k int) (float64, int) {
	if a.order != nil {
		k = int(a.order[k])
	}
	j := a.jobs[k]
	return j.Arrival, j.ID
}

// Arrivals returns the trace's replay order, memoized. On a sorted slab
// it is a view of the slab; otherwise the order is stable-sorted once.
// Each call re-checks the memo against the jobs' current arrival times
// in one O(n) pass, so an in-place edit never replays in a stale order.
// Requires a validated trace. Safe for concurrent use on a trace that
// is not being modified.
//
// The returned Arrivals reads times and IDs from the jobs at every At,
// so it is only valid until the next edit of the trace's jobs: a
// replay, snapshot or fork streaming from it must not outlive such an
// edit.
func (tr *Trace) Arrivals() *Arrivals {
	if a := tr.arrivals.Load(); a != nil && a.matches(tr.Jobs) {
		return a
	}
	a := &Arrivals{jobs: tr.Jobs}
	if !a.matches(tr.Jobs) {
		order := make([]int32, len(tr.Jobs))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(x, y int32) int {
			return cmp.Compare(tr.Jobs[x].Arrival, tr.Jobs[y].Arrival)
		})
		a.order = order
	}
	tr.arrivals.Store(a)
	return a
}

// matches reports whether a is the replay order of jobs: same slab, and
// the order runs through the current arrival times without a descent
// or a same-instant pair out of slab order. An order built from this
// slab is a permutation of its indices, and the stable replay order is
// the only permutation with that property.
func (a *Arrivals) matches(jobs []*Job) bool {
	if len(a.jobs) != len(jobs) || (len(jobs) > 0 && &a.jobs[0] != &jobs[0]) {
		return false
	}
	prevT, prevI := math.Inf(-1), -1
	for k := range jobs {
		i := k
		if a.order != nil {
			i = int(a.order[k])
		}
		t := jobs[i].Arrival
		if t < prevT || (t == prevT && i < prevI) {
			return false
		}
		prevT, prevI = t, i
	}
	return true
}
