package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// --- queueMirror against a reference slice -----------------------------

// mirrorModel drives a queueMirror and a plain slice with the engine's
// discipline (append on admit, ordered removal on depart) and checks
// after every step that the mirror answers like the slice.
type mirrorModel struct {
	t      testing.TB
	m      queueMirror
	ref    []*JobInfo
	nextID int
}

func (mm *mirrorModel) newJob() *JobInfo {
	// Sparse, non-monotone IDs: the mirror must not assume ID order.
	j := &JobInfo{ID: 7 + (mm.nextID*7919)%100003}
	mm.nextID++
	return j
}

// step applies one operation chosen by op.
func (mm *mirrorModel) step(op byte) {
	switch {
	case op < 110 || len(mm.ref) == 0: // admit
		j := mm.newJob()
		mm.m.admit(j)
		mm.ref = append(mm.ref, j)
	case op < 220: // depart; op picks the job, often the head or tail
		var i int
		switch op % 4 {
		case 0:
			i = 0
		case 1:
			i = len(mm.ref) - 1
		default:
			i = int(op) * 131 % len(mm.ref)
		}
		mm.m.depart(mm.ref[i])
		mm.ref = slices.Delete(mm.ref, i, i+1)
	case op < 235: // depart a job the mirror never saw: a no-op
		mm.m.depart(&JobInfo{ID: -1 - int(op)})
	case op < 245: // rebuild: reset, then re-admit the live queue in order
		mm.m.reset()
		for _, j := range mm.ref {
			mm.m.admit(j)
		}
	default: // reset to empty
		mm.m.reset()
		mm.ref = mm.ref[:0]
	}
	mm.check()
}

func (mm *mirrorModel) check() {
	t, m, ref := mm.t, &mm.m, mm.ref
	t.Helper()
	if m.live != len(ref) {
		t.Fatalf("live = %d, reference queue has %d", m.live, len(ref))
	}
	for i, j := range ref {
		if got := m.index(j); got != i {
			t.Fatalf("index(job %d) = %d, reference position %d (queue %d)", j.ID, got, i, len(ref))
		}
	}
	if !m.synced(ref) {
		t.Fatalf("synced = false on the mirrored queue (len %d)", len(ref))
	}
	if n := len(ref); n > 0 {
		// A masked queue (the cluster emulator filters the queue) and a
		// hand-built one (same length, other jobs) must not pass.
		for _, masked := range [][]*JobInfo{ref[1:], ref[:n-1]} {
			if m.synced(masked) {
				t.Fatalf("synced = true on a masked queue (len %d of %d)", len(masked), n)
			}
		}
		built := make([]*JobInfo, n)
		for i, j := range ref {
			c := *j
			built[i] = &c
		}
		if m.synced(built) {
			t.Fatalf("synced = true on a hand-built queue of %d copies", n)
		}
	} else if m.synced([]*JobInfo{{ID: 1}}) {
		t.Fatal("synced = true on a hand-built queue while the mirror is empty")
	}
	// Memory stays O(live): dead ordinals never outnumber the live ones
	// by more than the compaction floor.
	if dead := len(m.ords) - m.live; dead > max(minMirrorCap, m.live) {
		t.Fatalf("%d dead ordinals held for %d live jobs", dead, m.live)
	}
}

// TestQueueMirrorMatchesSlice runs long random operation sequences that
// alternate growth-heavy and drain-heavy phases, so queues get deep
// enough to cross Fenwick growth and compaction many times and drain in
// and out of admission order.
func TestQueueMirrorMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// pick draws an op byte of a category: admit, depart, unknown
	// depart, rebuild or reset, weighted by w (out of 1000).
	pick := func(w [5]int) byte {
		lo := [6]int{0, 110, 220, 235, 245, 256}
		r := rng.Intn(1000)
		for c := range w {
			if r < w[c] {
				return byte(lo[c] + rng.Intn(lo[c+1]-lo[c]))
			}
			r -= w[c]
		}
		return 0
	}
	deepest, compactions := 0, 0
	for trial := 0; trial < 8; trial++ {
		mm := &mirrorModel{t: t}
		for phase := 0; phase < 6; phase++ {
			w := [5]int{700, 285, 10, 5, 0}
			if phase%2 == 1 {
				w = [5]int{250, 730, 10, 10, 0}
			}
			for k := 0; k < 600; k++ {
				n := len(mm.m.ords)
				mm.step(pick(w))
				if mm.m.live > 0 && len(mm.m.ords) < n-1 {
					compactions++
				}
				deepest = max(deepest, len(mm.ref))
			}
		}
		mm.step(250) // reset
	}
	if deepest < 4*minMirrorCap || compactions == 0 {
		t.Fatalf("sequences too shallow: deepest queue %d, %d compactions", deepest, compactions)
	}
}

// repeatOps returns ops repeated n times.
func repeatOps(ops []byte, n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, ops...)
	}
	return out
}

// FuzzQueueMirror interprets the input as an operation sequence. The
// last seed is a fork rebuild followed by late admits (an InjectJob
// arrival on a forked engine): 300 admits, 152 departures from the
// middle, a rebuild, then admits interleaved with tail departures.
func FuzzQueueMirror(f *testing.F) {
	f.Add([]byte{0, 0, 0, 112, 113, 0, 240, 0, 250, 0})
	f.Add(repeatOps([]byte{0, 0, 0, 126}, 64))
	f.Add(append(repeatOps([]byte{1}, 200), repeatOps([]byte{114, 122, 0}, 150)...))
	late := append(repeatOps([]byte{0}, 300), repeatOps([]byte{120, 122, 124, 126}, 38)...)
	late = append(append(late, 240), repeatOps([]byte{0, 221, 0}, 100)...)
	f.Add(late)
	f.Fuzz(func(t *testing.T, ops []byte) {
		mm := &mirrorModel{t: t}
		for _, op := range ops {
			mm.step(op)
		}
	})
}

// --- early-exit sift against a full recompute ---------------------------

// assertWinnerTree recomputes every internal node from its children
// and fails on the first node the incremental sifts left different.
func assertWinnerTree(t *testing.T, tour *Tournament, step int) {
	t.Helper()
	for i := 0; i < tour.size; i++ {
		want := int32(-1)
		if tour.elig[i>>6]&(1<<(i&63)) != 0 {
			want = int32(i)
		}
		if got := tour.win[tour.size+i]; got != want {
			t.Fatalf("step %d: leaf %d winner %d, want %d", step, i, got, want)
		}
	}
	for v := tour.size - 1; v >= 1; v-- {
		if got, want := tour.win[v], tour.merge(tour.win[2*v], tour.win[2*v+1]); got != want {
			t.Fatalf("step %d: node %d winner %d, full recompute %d", step, v, got, want)
		}
	}
}

// TestSiftEarlyExitMatchesFullRecompute drives Fair's tournaments, whose
// keys (running-task counts) move on every Fix, through random
// Add/Remove/Fix sequences and checks the whole winner tree after each.
func TestSiftEarlyExitMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, side := range []struct {
		name     string
		better   func(a, b *JobInfo) bool
		eligible func(*JobInfo) bool
	}{
		{"map", fairMapBetter, (*JobInfo).wantsMapSlot},
		{"reduce", fairReduceBetter, (*JobInfo).wantsReduceSlot},
	} {
		tour := NewTournament(side.better, side.eligible)
		live := map[int]*JobInfo{}
		var ids []int
		nextID := 0
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(10); {
			case op < 3 || len(ids) == 0:
				j := mkJob(nextID, float64(rng.Intn(4)), 0, 1+rng.Intn(6), rng.Intn(4))
				j.ReduceReady = rng.Intn(2) == 0
				nextID++
				live[j.ID] = j
				ids = append(ids, j.ID)
				tour.Add(j)
			case op < 5:
				i := rng.Intn(len(ids))
				tour.Remove(live[ids[i]])
				delete(live, ids[i])
				ids = slices.Delete(ids, i, i+1)
			default: // move one job's running count either way, then Fix
				j := live[ids[rng.Intn(len(ids))]]
				switch rng.Intn(5) {
				case 0:
					if j.ScheduledMaps < j.NumMaps {
						j.ScheduledMaps++
					}
				case 1:
					if j.CompletedMaps < j.ScheduledMaps {
						j.CompletedMaps++
					}
				case 2:
					if j.ScheduledReduces < j.NumReduces {
						j.ScheduledReduces++
					}
				case 3:
					if j.CompletedReduces < j.ScheduledReduces {
						j.CompletedReduces++
					}
				default:
					j.ReduceReady = !j.ReduceReady
				}
				tour.Fix(j)
			}
			assertWinnerTree(t, tour, step)
			if want := naiveBest(live, side.better, side.eligible); tour.Best() != want {
				t.Fatalf("%s step %d: Best() = %v, naive scan %v", side.name, step, tour.Best(), want)
			}
		}
	}
}
