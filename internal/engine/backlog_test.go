package engine

import (
	"math/rand"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// backlogTrace draws a multi-tenant stream that overloads a 32-slot
// cluster: about 30% of its jobs carry no deadline, and MinEDF starves
// them while deadline jobs keep arriving, so the active queue stays
// hundreds deep and jobs depart far out of admission order — the
// regime where the indexed path's queue-position bookkeeping works
// hardest.
func backlogTrace(t *testing.T, jobs int) *trace.Trace {
	t.Helper()
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "backlog", Jobs: jobs, MeanInterArrival: 10, TemplatePool: 64,
		DeadlineFraction: 0.7, DeadlineSlack: 900,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// backlogShape reads an obs stream's peak active-queue depth and how
// many jobs departed while an earlier-admitted job was still active.
func backlogShape(evs []obs.Event) (peak, overtakes int) {
	var order []int // admitted, not yet departed, in admission order
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindJobArrival:
			order = append(order, ev.JobID)
			peak = max(peak, len(order))
		case obs.KindJobDeparture:
			for i, id := range order {
				if id == ev.JobID {
					if i > 0 {
						overtakes++
					}
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
	}
	return peak, overtakes
}

// TestDifferentialIndexedBacklog replays the sustained-backlog trace
// under MinEDF on the scan and indexed paths, and forks the indexed
// replay in the middle of the backlog: all must be byte-identical.
func TestDifferentialIndexedBacklog(t *testing.T) {
	const jobs = 1500
	tr := backlogTrace(t, jobs)
	cfg := Config{MapSlots: 32, ReduceSlots: 32, MinMapPercentCompleted: 0.05}
	scan := func() sched.Policy { return sched.MinEDF{} }

	res, sink := replayRecorded(t, cfg, tr, scan())
	if peak, overtakes := backlogShape(sink.Events); peak < 200 || overtakes < jobs/4 {
		t.Fatalf("no sustained backlog: peak queue %d, %d out-of-order departures", peak, overtakes)
	}
	assertIdenticalReplays(t, cfg, tr, scan)

	mid := res.Events / 2
	prefix, _ := pauseAt(t, cfg, tr, scan(), mid)
	if n := len(prefix.active); n < 100 {
		t.Fatalf("fork point %d has only %d active jobs", mid, n)
	}
	indexed := func() sched.Policy { return sched.Indexed(scan()) }
	assertForkMatchesScratch(t, cfg, tr, indexed, mid, forkMutations(nil)[0])
	assertForkMatchesScratch(t, cfg, tr, indexed, mid, forkMutations(nil)[1])
}
