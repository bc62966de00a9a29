package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// This file pins the engine's arrival order on inputs where it is
// easiest to get wrong: traces whose jobs are not sorted by arrival,
// with many jobs arriving at the same instant, an injected job landing
// at a time several traced jobs also arrive at, and forks taken before
// any arrival fired and halfway through the arrivals. The golden file
// was recorded before arrivals moved out of the event heap; every case
// must reproduce its JobOutcomes, obs stream, depth samples and run
// counters exactly. Regenerate with
// `go test ./internal/engine -run LaneGolden -update` only for a
// deliberate semantics change (and bump SemanticsVersion with it).

// laneTemplates returns a few small templates so a 40-job trace keeps
// an 8-slot cluster contended without a long obs stream. Durations are
// irregular so that no two running maps of one job end at the same
// instant: the preemption victim is then the one task with the latest
// end, not a tie.
func laneTemplates() []*trace.Template {
	return []*trace.Template{
		{AppName: "a", NumMaps: 3, NumReduces: 1,
			MapDurations: []float64{4.13, 6.71, 5.29}, FirstShuffle: []float64{2.17},
			TypicalShuffle: []float64{3.31}, ReduceDurations: []float64{7.03}},
		{AppName: "b", NumMaps: 5, NumReduces: 2,
			MapDurations: []float64{3.07, 3.41, 8.19, 2.53, 5.87}, FirstShuffle: []float64{1.37, 4.61},
			TypicalShuffle: []float64{2.23, 5.09}, ReduceDurations: []float64{6.47, 2.89}},
		{AppName: "c", NumMaps: 2, NumReduces: 0,
			MapDurations: []float64{9.43, 1.19}},
	}
}

// laneTrace builds the 40-job golden trace: arrivals on a coarse
// 7.5 s grid in random slab order (so the slab is unsorted and most
// arrival instants are shared), 2 in 3 jobs with a deadline. dense
// selects IDs equal to slab indices (slice dispatch); otherwise IDs are
// a sparse permutation (map dispatch).
func laneTrace(dense bool) *trace.Trace {
	rng := rand.New(rand.NewSource(13))
	tpls := laneTemplates()
	const n = 40
	jobs := make([]*trace.Job, n)
	for i := range jobs {
		arr := float64(rng.Intn(12)) * 7.5
		dl := 0.0
		if rng.Intn(3) > 0 {
			dl = arr + 30 + float64(rng.Intn(150))
		}
		id := i
		if !dense {
			id = 1000 + (i*37%n)*3
		}
		jobs[i] = &trace.Job{
			ID: id, Name: "j" + strconv.Itoa(i),
			Arrival: arr, Deadline: dl,
			Template: tpls[rng.Intn(len(tpls))],
		}
	}
	return &trace.Trace{Name: "lane-golden", Jobs: jobs}
}

// depthRecorder is a RecordSink that also keeps the queue-depth
// samples, so the golden pins what "pending" counts.
type depthRecorder struct {
	obs.RecordSink
	depths []int
}

func (d *depthRecorder) SampleDepth(_ float64, depth int) { d.depths = append(d.depths, depth) }

// laneCase is one golden record.
type laneCase struct {
	Name      string       `json:"name"`
	Pause     uint64       `json:"pause,omitempty"`
	Events    uint64       `json:"events"`
	Makespan  float64      `json:"makespan"`
	Counters  obs.Counters `json:"counters"`
	Depths    []int        `json:"depths"`
	StreamLen int          `json:"stream_len"`
	Stream    string       `json:"stream_sha256"`
	Outcomes  string       `json:"outcomes_sha256"`
}

// exactF renders a float so that distinct values render distinctly.
func exactF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func digestStream(evs []obs.Event) string {
	h := sha256.New()
	for _, ev := range evs {
		fmt.Fprintf(h, "%s %d %d %d %s %s\n", exactF(ev.Time), ev.Kind, ev.JobID, ev.Task, exactF(ev.End), exactF(ev.ShuffleEnd))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestOutcomes(jobs []JobOutcome) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%d %q %s %s %s %s %d %d %d %d\n", j.ID, j.Name,
			exactF(j.Arrival), exactF(j.Finish), exactF(j.Deadline), exactF(j.MapStageEnd),
			j.MapTasksRun, j.ReduceTasksRun, j.PreemptedMaps, j.Events)
		for _, s := range j.MapSpans {
			fmt.Fprintf(h, "m %s %s\n", exactF(s.Start), exactF(s.End))
		}
		for _, s := range j.ReduceSpans {
			fmt.Fprintf(h, "r %s %s %s\n", exactF(s.Start), exactF(s.ShuffleEnd), exactF(s.End))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lanePause returns the first event count at which RunEvents stops
// with at least half the jobs arrived — a pause point in the middle of
// the arrivals.
func lanePause(t *testing.T, cfg Config, tr *trace.Trace, p sched.Policy) uint64 {
	t.Helper()
	e, err := New(cfg, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); ; k++ {
		done, err := e.RunEvents(k)
		if err != nil {
			t.Fatal(err)
		}
		arrived := 0
		for i := range e.jobs {
			if e.jobs[i].arrived {
				arrived++
			}
		}
		if 2*arrived >= len(e.jobs) || done {
			return e.EventsFired()
		}
	}
}

// laneInject adds a job arriving together with the first not yet
// arrived job, so the injected arrival ties with traced ones.
func laneInject(t *testing.T, e *Engine) {
	t.Helper()
	id, arr := firstUnarrivedID(e)
	if id < 0 {
		t.Fatal("no unarrived job to tie the injected arrival with")
	}
	j := &trace.Job{ID: 9_000_000, Name: "injected", Arrival: arr, Deadline: arr + 90, Template: laneTemplates()[1]}
	if err := e.InjectJob(j); err != nil {
		t.Fatalf("InjectJob: %v", err)
	}
}

// laneForkCase pauses a replay at pause events, forks it, optionally
// injects a tied arrival into the fork, and records the logical replay
// (prefix stream ++ fork stream).
func laneForkCase(t *testing.T, name string, cfg Config, tr *trace.Trace, mk func() sched.Policy, pause uint64, inject bool) laneCase {
	t.Helper()
	prefixSink := &depthRecorder{}
	pcfg := cfg
	pcfg.Sink = prefixSink
	prefix, err := New(pcfg, tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prefix.RunEvents(pause); err != nil {
		t.Fatal(err)
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forkSink := &depthRecorder{}
	fork, err := snap.Fork(ForkOptions{Policy: mk(), Sink: forkSink})
	if err != nil {
		t.Fatal(err)
	}
	if inject {
		laneInject(t, fork)
	}
	res, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]obs.Event(nil), prefixSink.Events...), forkSink.Events...)
	return laneCase{
		Name: name, Pause: pause,
		Events: res.Events, Makespan: res.Makespan,
		Counters:  forkSink.Counters,
		Depths:    append(append([]int{}, prefixSink.depths...), forkSink.depths...),
		StreamLen: len(stream), Stream: digestStream(stream),
		Outcomes: digestOutcomes(res.Jobs),
	}
}

func laneGoldenCases(t *testing.T) []laneCase {
	var out []laneCase
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"spans", Config{MapSlots: 8, ReduceSlots: 4, MinMapPercentCompleted: 0.05, RecordSpans: true}},
		{"preempt", Config{MapSlots: 8, ReduceSlots: 4, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}},
	}
	policies := []struct {
		name string
		mk   func() sched.Policy
	}{
		{"FIFO", func() sched.Policy { return sched.FIFO{} }},
		{"MinEDF", func() sched.Policy { return sched.MinEDF{} }},
		{"MinEDF-indexed", func() sched.Policy { return sched.Indexed(sched.MinEDF{}) }},
	}
	for _, dense := range []bool{true, false} {
		tr := laneTrace(dense)
		tname := "sparse"
		if dense {
			tname = "dense"
		}
		for _, c := range cfgs {
			for _, p := range policies {
				base := tname + "/" + c.name + "/" + p.name
				sink := &depthRecorder{}
				cfg := c.cfg
				cfg.Sink = sink
				res, err := Run(cfg, tr, p.mk())
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				out = append(out, laneCase{
					Name: base + "/run", Events: res.Events, Makespan: res.Makespan,
					Counters: sink.Counters, Depths: append([]int{}, sink.depths...),
					StreamLen: len(sink.Events), Stream: digestStream(sink.Events),
					Outcomes: digestOutcomes(res.Jobs),
				})
				mid := lanePause(t, c.cfg, tr, p.mk())
				out = append(out,
					laneForkCase(t, base+"/fork0-inject", c.cfg, tr, p.mk, 0, true),
					laneForkCase(t, base+"/forkmid", c.cfg, tr, p.mk, mid, false),
					laneForkCase(t, base+"/forkmid-inject", c.cfg, tr, p.mk, mid, true),
				)
			}
		}
	}
	return out
}

func TestLaneGolden(t *testing.T) {
	got := laneGoldenCases(t)
	golden := filepath.Join("testdata", "lane_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want []laneCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("case %s drifted from golden:\n got: %s\nwant: %s", w.Name, gj, wj)
		}
	}
}
