package trace

import (
	"slices"
	"testing"
)

func arrivalIDs(a *Arrivals) []int {
	ids := make([]int, a.Len())
	for k := range ids {
		_, ids[k] = a.At(k)
	}
	return ids
}

// TestArrivalsOrder pins the replay order: arrival time, then slab
// order among jobs arriving together; a sorted slab is used as is.
func TestArrivalsOrder(t *testing.T) {
	tpl := &Template{AppName: "a", NumMaps: 1, MapDurations: []float64{1}}
	mk := func(arrivals ...float64) *Trace {
		tr := &Trace{}
		for i, at := range arrivals {
			tr.Jobs = append(tr.Jobs, &Job{ID: 10 + i, Arrival: at, Template: tpl})
		}
		return tr
	}

	sorted := mk(0, 1, 1, 4)
	a := sorted.Arrivals()
	if a.order != nil {
		t.Fatal("sorted slab got a sort order")
	}
	if got, want := arrivalIDs(a), []int{10, 11, 12, 13}; !slices.Equal(got, want) {
		t.Fatalf("sorted: %v, want %v", got, want)
	}
	if sorted.Arrivals() != a {
		t.Fatal("memo not reused")
	}

	tr := mk(5, 1, 5, 0, 1)
	a = tr.Arrivals()
	if got, want := arrivalIDs(a), []int{13, 11, 14, 10, 12}; !slices.Equal(got, want) {
		t.Fatalf("unsorted: %v, want %v", got, want)
	}
	if tr.Arrivals() != a {
		t.Fatal("memo not reused")
	}

	// An in-place edit makes the memo stale; the next call re-sorts.
	tr.Jobs[0].Arrival = 0.5
	if got, want := arrivalIDs(tr.Arrivals()), []int{13, 10, 11, 14, 12}; !slices.Equal(got, want) {
		t.Fatalf("after edit: %v, want %v", got, want)
	}
	// So does a new slab, even one of the same jobs.
	tr.Jobs = append([]*Job(nil), tr.Jobs[1:]...)
	if got, want := arrivalIDs(tr.Arrivals()), []int{13, 11, 14, 12}; !slices.Equal(got, want) {
		t.Fatalf("after reslab: %v, want %v", got, want)
	}
	// Normalize sorts the slab and drops the memo.
	tr.Normalize()
	if tr.arrivals.Load() != nil {
		t.Fatal("Normalize kept the memo")
	}
	if a := tr.Arrivals(); a.order != nil || !slices.Equal(arrivalIDs(a), []int{0, 1, 2, 3}) {
		t.Fatalf("normalized: order %v, ids %v", a.order, arrivalIDs(a))
	}
}
