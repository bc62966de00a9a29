package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// reuseScenario is one (config, trace, policy) combination the reuse
// property tests replay.
type reuseScenario struct {
	name   string
	cfg    Config
	tr     *trace.Trace
	policy sched.Policy
}

func reuseScenarios(t *testing.T) []reuseScenario {
	t.Helper()
	rngA := rand.New(rand.NewSource(21))
	trA, err := synth.ProductionTrace(30, rngA)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(22))
	trB, err := synth.ProductionTrace(8, rngB)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &trace.Template{
		AppName: "re", NumMaps: 6, NumReduces: 2,
		MapDurations:    []float64{5, 5, 5, 5, 5, 5},
		FirstShuffle:    []float64{1, 1},
		TypicalShuffle:  []float64{2, 2},
		ReduceDurations: []float64{3, 3},
	}
	trDeadline := &trace.Trace{Jobs: []*trace.Job{
		{Arrival: 0, Deadline: 100, Template: tpl},
		{Arrival: 2, Deadline: 40, Template: tpl},
	}}
	trDeadline.Normalize()
	trSparse := &trace.Trace{Jobs: []*trace.Job{
		{ID: 13, Arrival: 0, Template: tpl},
		{ID: 5, Arrival: 1, Template: tpl},
	}}
	return []reuseScenario{
		{"default-fifo", DefaultConfig(), trA, sched.FIFO{}},
		{"small-cluster-minedf", Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.3}, trB, sched.MinEDF{}},
		{"spans-fair", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05, RecordSpans: true}, trB, sched.Fair{}},
		{"preempt-maxedf", Config{MapSlots: 2, ReduceSlots: 2, MinMapPercentCompleted: 0.05, PreemptMapTasks: true}, trDeadline, sched.MaxEDF{}},
		{"sparse-ids", DefaultConfig(), trSparse, sched.FIFO{}},
		{"ablation-noshuffle", Config{MapSlots: 32, ReduceSlots: 32, MinMapPercentCompleted: 0.05, NoShuffleModel: true}, trA, sched.FIFO{}},
	}
}

// TestResetReplayIdentical is the engine-reuse determinism property:
// one engine Reset through every scenario (in both directions, so each
// scenario runs on state dirtied by a *different* predecessor) must
// reproduce the fresh-engine result byte for byte.
func TestResetReplayIdentical(t *testing.T) {
	scenarios := reuseScenarios(t)
	fresh := make([]*Result, len(scenarios))
	for i, sc := range scenarios {
		res, err := Run(sc.cfg, sc.tr, sc.policy)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", sc.name, err)
		}
		fresh[i] = res
	}
	reused := &Engine{}
	order := make([]int, 0, 2*len(scenarios))
	for i := range scenarios {
		order = append(order, i)
	}
	for i := len(scenarios) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		sc := scenarios[i]
		if err := reused.Reset(sc.cfg, sc.tr, sc.policy); err != nil {
			t.Fatalf("%s: Reset: %v", sc.name, err)
		}
		res, err := reused.Run()
		if err != nil {
			t.Fatalf("%s: reused run: %v", sc.name, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Fatalf("%s: reused engine diverged from fresh engine", sc.name)
		}
	}
}

// TestRunTwiceWithoutResetRejected: a second Run on dirty state must be
// refused, not silently replay garbage.
func TestRunTwiceWithoutResetRejected(t *testing.T) {
	sc := reuseScenarios(t)[0]
	e, err := New(sc.cfg, sc.tr, sc.policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run without Reset did not error")
	}
	if err := e.Reset(sc.cfg, sc.tr, sc.policy); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after Reset failed: %v", err)
	}
}

// TestReusedEngineDoesNotCorruptPriorResults: outcomes (including span
// slices) returned by one run must stay intact after the engine is
// reset and rerun — the Result-escape half of the reuse contract.
func TestReusedEngineDoesNotCorruptPriorResults(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := synth.ProductionTrace(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05, RecordSpans: true}
	e, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("setup: fresh runs disagree")
	}
	// Rerun the same engine on a different cluster size; the first
	// result must not change underneath its holder.
	cfg2 := Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05, RecordSpans: true}
	if err := e.Reset(cfg2, tr, sched.FIFO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("reusing the engine mutated a previously returned Result")
	}
}

// TestPoolRunIdentical: pooled runs must match direct runs for every
// scenario, including when the pool cycles one engine through all of
// them back to back.
func TestPoolRunIdentical(t *testing.T) {
	var pool Pool
	for round := 0; round < 3; round++ {
		for _, sc := range reuseScenarios(t) {
			want, err := Run(sc.cfg, sc.tr, sc.policy)
			if err != nil {
				t.Fatalf("%s: direct: %v", sc.name, err)
			}
			got, err := pool.Run(sc.cfg, sc.tr, sc.policy)
			if err != nil {
				t.Fatalf("%s: pooled: %v", sc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pooled result diverged (round %d)", sc.name, round)
			}
		}
	}
}

// TestPoolConcurrentDeterminism hammers two pools, which share one idle
// list, from many goroutines over a shared trace; under -race this
// checks both the data-race freedom of pooled reuse and result
// determinism.
func TestPoolConcurrentDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tr, err := synth.ProductionTrace(15, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	var pools [2]Pool
	const goroutines = 8
	const runsEach = 5
	results := make([][]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				res, err := pools[g%2].Run(DefaultConfig(), tr, sched.FIFO{})
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r, res := range results[g] {
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("goroutine %d run %d diverged from serial reference", g, r)
			}
		}
	}
}

// TestPoolRejectsInvalidThenRecovers: a Get that fails validation must
// not poison the pool for the next caller.
func TestPoolRejectsInvalidThenRecovers(t *testing.T) {
	sc := reuseScenarios(t)[0]
	var pool Pool
	if _, err := pool.Run(sc.cfg, sc.tr, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := pool.Run(Config{MapSlots: -1}, sc.tr, sc.policy); err == nil {
		t.Fatal("invalid config accepted")
	}
	res, err := pool.Run(sc.cfg, sc.tr, sc.policy)
	if err != nil || res == nil {
		t.Fatalf("pool did not recover from rejected arming: %v", err)
	}
}

// TestPoolsShareIdleEngines: every Pool draws from one idle list, so an
// engine Put into one Pool is reused by a Get on another, keeps each
// Pool's OnGet, and replays byte-identically to a fresh engine.
func TestPoolsShareIdleEngines(t *testing.T) {
	scs := reuseScenarios(t)
	warm, next := scs[0], scs[1]
	want, wantSink := replayRecorded(t, next.cfg, next.tr, next.policy)
	var aGets, bGets []bool
	a := Pool{OnGet: func(reused bool) { aGets = append(aGets, reused) }}
	b := Pool{OnGet: func(reused bool) { bGets = append(bGets, reused) }}
	// sync.Pool may drop a Put (under -race it drops one in four)
	// or lose it to a collection, so retry until one handoff lands.
	for try := 0; try < 100; try++ {
		e, err := a.Get(warm.cfg, warm.tr, warm.policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		a.Put(e)
		sink := &obs.RecordSink{}
		cfg := next.cfg
		cfg.Sink = sink
		got, err := b.Get(cfg, next.tr, next.policy)
		if err != nil {
			t.Fatal(err)
		}
		reused := got == e
		res, err := got.Run()
		if err != nil {
			t.Fatal(err)
		}
		b.Put(got)
		if !reflect.DeepEqual(res, want) || digestStream(sink.Events) != digestStream(wantSink.Events) {
			t.Fatalf("try %d (reused %v): replay diverged from a fresh engine", try, reused)
		}
		if reused {
			if !bGets[len(bGets)-1] {
				t.Fatal("b's OnGet reported a fresh build for a reused engine")
			}
			if len(aGets) != try+1 {
				t.Fatalf("a's OnGet saw %d gets, want %d: b's Get leaked into a's hook", len(aGets), try+1)
			}
			return
		}
	}
	t.Fatal("no engine Put into one Pool was reused by a Get on another in 100 tries")
}
