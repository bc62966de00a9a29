package des

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// sliceLane is a Lane over parallel slices already in lane order.
type sliceLane struct {
	times []Time
	ids   []int
}

func (l *sliceLane) Len() int             { return len(l.times) }
func (l *sliceLane) At(k int) (Time, int) { return l.times[k], l.ids[k] }
func (l *sliceLane) push(t Time, id int)  { l.times, l.ids = append(l.times, t), append(l.ids, id) }

// laneType is the event type lane entries pop as in these tests.
const laneType = 5

// runLaneSchedule checks a queue holding n arrivals in its lane against
// two container/heap references given every arrival up front: refLane
// pushed in lane order (so seqs must match exactly) and refSlab pushed
// in the unsorted input order (so the stable sort that builds the lane
// must reproduce its (Time, JobID) order). Arrival times come from a
// small domain, so most of them tie with each other and with the heap
// events the schedule pushes. Each op byte selects push, pop, update,
// remove or — mid-lane as often as not — CloneInto, after which the
// schedule continues on the clone. Len, Fired and HighWater must match
// the reference after every op.
func runLaneSchedule(t *testing.T, n int, ops []byte, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	times := make([]Time, n)
	for i := range times {
		times[i] = Time(rng.Intn(32))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	lane := &sliceLane{}
	var refLane, refSlab refQueue
	for _, i := range order {
		lane.push(times[i], 1000+i)
		refLane.push(times[i], 1000+i)
	}
	for i, tm := range times {
		refSlab.push(tm, 1000+i)
	}

	q, spare := &EventQueue{}, &EventQueue{}
	q.SetLane(lane, laneType)
	type pair struct {
		e          *Event
		rLane, rSl *refEvent
	}
	var live []pair
	high, fired := n, uint64(0)
	id := 0

	popBoth := func(where string) {
		e := q.Pop()
		rl, rs := refLane.pop(), refSlab.pop()
		fired++
		if e.Time != rl.time || e.seq != rl.seq || e.JobID != rl.id {
			t.Fatalf("%s: pop (t=%v seq=%d id=%d), lane-order reference (t=%v seq=%d id=%d)",
				where, e.Time, e.seq, e.JobID, rl.time, rl.seq, rl.id)
		}
		if e.Time != rs.time || e.JobID != rs.id {
			t.Fatalf("%s: pop (t=%v id=%d), input-order reference (t=%v id=%d)",
				where, e.Time, e.JobID, rs.time, rs.id)
		}
		if fromLane := e.seq < uint64(n); fromLane && (e.Type != laneType || e.Payload != nil || e.Scheduled()) {
			t.Fatalf("%s: lane event popped as %+v", where, e)
		}
		for i := range live {
			if live[i].e == e {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				break
			}
		}
		q.Free(e)
	}

	for opIdx, op := range ops {
		switch op % 5 {
		case 0: // push a heap event
			tm := Time(rng.Intn(40))
			e := q.Push(tm, 0, id, nil)
			live = append(live, pair{e, refLane.push(tm, id), refSlab.push(tm, id)})
			id++
			high = max(high, len(refLane.h))
		case 1:
			if q.Len() > 0 {
				popBoth("op")
			}
		case 2: // update a heap event
			if len(live) == 0 {
				continue
			}
			p := live[rng.Intn(len(live))]
			tm := Time(rng.Intn(40))
			q.Update(p.e, tm)
			refLane.update(p.rLane, tm)
			refSlab.update(p.rSl, tm)
		case 3: // remove a heap event
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			q.Remove(p.e)
			refLane.remove(p.rLane)
			refSlab.remove(p.rSl)
			q.Free(p.e)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case 4: // continue on a clone, recycling the previous queue
			q.CloneInto(spare)
			for i := range live {
				live[i].e = spare.PendingAt(live[i].e.HeapPos())
			}
			q, spare = spare, q
		}
		if q.Len() != len(refLane.h) || q.Fired() != fired || q.HighWater() != high {
			t.Fatalf("op %d: Len/Fired/HighWater = %d/%d/%d, reference %d/%d/%d",
				opIdx, q.Len(), q.Fired(), q.HighWater(), len(refLane.h), fired, high)
		}
		if q.LaneLen() > q.Len() {
			t.Fatalf("op %d: LaneLen %d exceeds Len %d", opIdx, q.LaneLen(), q.Len())
		}
	}
	for q.Len() > 0 {
		if pk := q.Peek(); pk.Time != refLane.h[0].time || pk.JobID != refLane.h[0].id {
			t.Fatalf("drain: Peek (t=%v id=%d), reference head (t=%v id=%d)", pk.Time, pk.JobID, refLane.h[0].time, refLane.h[0].id)
		}
		popBoth("drain")
	}
	if q.LaneLen() != 0 || len(refSlab.h) != 0 {
		t.Fatalf("drained queue still holds %d lane entries; reference %d events", q.LaneLen(), len(refSlab.h))
	}
}

// TestLaneDifferentialRandomSchedules runs many random lanes and
// schedules, from empty lanes to lanes far longer than the schedule.
func TestLaneDifferentialRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(300)
		ops := make([]byte, rng.Intn(1500))
		rng.Read(ops)
		runLaneSchedule(t, n, ops, int64(trial))
	}
}

// FuzzLaneDifferential hands lane size and schedule to the fuzzer.
func FuzzLaneDifferential(f *testing.F) {
	f.Add(uint16(5), []byte{1, 1, 0, 1, 4, 1, 1, 1})
	f.Add(uint16(40), []byte{0, 0, 4, 2, 3, 1, 4, 0, 1, 1})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		if len(ops) > 1<<14 {
			t.Skip("schedule too long")
		}
		runLaneSchedule(t, int(n%2048), ops, int64(n))
	})
}

// TestLaneContract pins the lane's edges: SetLane needs an empty
// queue, a peeked lane entry is a view that cannot be freed, a lane
// entry wins a time tie against a heap event pushed later, and Reset
// drops the lane.
func TestLaneContract(t *testing.T) {
	var q EventQueue
	q.Push(1, 0, 0, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetLane on a non-empty queue did not panic")
			}
		}()
		q.SetLane(&sliceLane{times: []Time{0}, ids: []int{0}}, laneType)
	}()
	q.Reset()

	q.SetLane(&sliceLane{times: []Time{2, 2, 3}, ids: []int{7, 8, 9}}, laneType)
	q.Push(2, 1, 42, nil)
	if q.Len() != 4 || q.LaneLen() != 3 || q.HighWater() != 4 {
		t.Fatalf("Len/LaneLen/HighWater = %d/%d/%d, want 4/3/4", q.Len(), q.LaneLen(), q.HighWater())
	}
	pk := q.Peek()
	if pk.JobID != 7 || pk.Scheduled() || pk.HeapPos() != -1 {
		t.Fatalf("Peek = %+v, want the unscheduled lane head (job 7)", pk)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Free on a peeked lane entry did not panic")
			}
		}()
		q.Free(pk)
	}()
	var got []int
	for q.Len() > 0 {
		e := q.Pop()
		got = append(got, e.JobID)
		q.Free(e)
	}
	if want := []int{7, 8, 42, 9}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}

	q.SetLane(&sliceLane{times: []Time{5}, ids: []int{1}}, laneType)
	q.Reset()
	if q.Len() != 0 || q.LaneLen() != 0 || q.Peek() != nil {
		t.Fatalf("Reset left Len %d, LaneLen %d", q.Len(), q.LaneLen())
	}
}
