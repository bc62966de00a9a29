package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// This file pins the preemption victim's tie-break. Every map task of
// a template here lasts the same whole number of seconds, so a victim
// routinely has several running maps that end at the same instant; the
// engine must kill the most recently scheduled of them however Go
// iterates the victim's running-map set.

// tieTrace builds a 40-job trace with integer task durations, arrivals
// on a coarse grid in unsorted slab order, 2 in 3 jobs with a deadline
// and sparse IDs.
func tieTrace() *trace.Trace {
	tpls := []*trace.Template{
		{AppName: "a", NumMaps: 4, NumReduces: 1,
			MapDurations: fill(4, 6), FirstShuffle: []float64{2},
			TypicalShuffle: []float64{3}, ReduceDurations: []float64{4}},
		{AppName: "b", NumMaps: 6, NumReduces: 2,
			MapDurations: fill(6, 5), FirstShuffle: []float64{1, 2},
			TypicalShuffle: []float64{2, 3}, ReduceDurations: []float64{3, 2}},
		{AppName: "c", NumMaps: 3, MapDurations: fill(3, 8)},
	}
	rng := rand.New(rand.NewSource(17))
	const n = 40
	jobs := make([]*trace.Job, n)
	for i := range jobs {
		arr := float64(rng.Intn(12) * 5)
		dl := 0.0
		if rng.Intn(3) > 0 {
			dl = arr + 20 + float64(rng.Intn(120))
		}
		jobs[i] = &trace.Job{
			ID: 1000 + (i*37%n)*3, Name: "t" + strconv.Itoa(i),
			Arrival: arr, Deadline: dl,
			Template: tpls[rng.Intn(len(tpls))],
		}
	}
	return &trace.Trace{Name: "preempt-tie", Jobs: jobs}
}

// preemptTies counts the kills whose victim had another running map
// ending at the same instant as the killed one — the kills whose task
// a map-order tie-break would pick at random.
func preemptTies(evs []obs.Event) (kills, ties int) {
	type task struct{ job, idx int }
	running := map[task]float64{} // running map -> planned end
	for _, ev := range evs {
		k := task{ev.JobID, ev.Task}
		switch ev.Kind {
		case obs.KindMapTaskStart:
			running[k] = ev.End
		case obs.KindMapTaskFinish:
			delete(running, k)
		case obs.KindPreempt:
			kills++
			for o, end := range running {
				if o.job == k.job && o.idx != k.idx && end == running[k] {
					ties++
					break
				}
			}
			delete(running, k)
		}
	}
	return kills, ties
}

// TestPreemptVictimTieDeterministic replays the tie trace 20 times
// fresh and 20 times as a fork taken halfway, under FIFO with map-task
// preemption, and requires one obs-stream and outcome digest for all.
func TestPreemptVictimTieDeterministic(t *testing.T) {
	tr := tieTrace()
	cfg := Config{MapSlots: 8, ReduceSlots: 4, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}

	first, firstSink := replayRecorded(t, cfg, tr, sched.FIFO{})
	kills, ties := preemptTies(firstSink.Events)
	if ties == 0 {
		t.Fatalf("fixture exercises no tie: %d kills, none with a same-end sibling", kills)
	}
	wantStream, wantOut := digestStream(firstSink.Events), digestOutcomes(first.Jobs)

	for i := 0; i < 20; i++ {
		res, sink := replayRecorded(t, cfg, tr, sched.FIFO{})
		if got := digestStream(sink.Events); got != wantStream {
			t.Fatalf("fresh replay %d: obs stream digest %s, first replay %s", i, got, wantStream)
		}
		if got := digestOutcomes(res.Jobs); got != wantOut {
			t.Fatalf("fresh replay %d: outcome digest %s, first replay %s", i, got, wantOut)
		}
	}

	prefix, prefixSink := pauseAt(t, cfg, tr, sched.FIFO{}, first.Events/2)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		forkSink := &obs.RecordSink{}
		fork, err := snap.Fork(ForkOptions{Sink: forkSink})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fork.Run()
		if err != nil {
			t.Fatal(err)
		}
		stream := append(append([]obs.Event(nil), prefixSink.Events...), forkSink.Events...)
		if got := digestStream(stream); got != wantStream {
			t.Fatalf("fork %d: obs stream digest %s, fresh replay %s", i, got, wantStream)
		}
		if got := digestOutcomes(res.Jobs); got != wantOut {
			t.Fatalf("fork %d: outcome digest %s, fresh replay %s", i, got, wantOut)
		}
	}
}
