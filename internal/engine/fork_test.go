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

// This file is the correctness oracle for copy-on-write forking
// (DESIGN.md §12): a fork taken at event k and run to completion must
// be byte-identical — JobOutcomes, event counts, makespan, obs stream,
// RunEnd counters — to a from-scratch replay paused at the same event
// with the same mutations applied. The scratch path uses the very same
// RunEvents + mutation methods, so any divergence is a COW bug (stale
// shared state, a missed handle remap, index rebuild drift), not a
// semantics question.

// forkMutation is one what-if edit applied identically to the fork and
// to the paused scratch replay. Implementations must be deterministic
// functions of the paused engine's state, so both applications pick the
// same jobs and values.
type forkMutation struct {
	name  string
	apply func(t *testing.T, e *Engine)
}

// injectTemplate builds a small well-formed template for injected jobs.
func injectTemplate() *trace.Template {
	return &trace.Template{
		AppName:         "whatif",
		NumMaps:         6,
		NumReduces:      2,
		MapDurations:    []float64{4, 5, 6, 7, 8, 9},
		FirstShuffle:    []float64{2, 2},
		TypicalShuffle:  []float64{3, 3},
		ReduceDurations: []float64{5, 6},
	}
}

// firstUnarrivedID returns the lowest-slab-index job whose arrival
// event has not fired yet, or -1. Read-only: must not trigger COW, so
// fork and scratch agree even before any mutation.
func firstUnarrivedID(e *Engine) (int, float64) {
	for i := range e.jobs {
		sj := e.jobRO(i)
		if !sj.arrived {
			return sj.info.ID, sj.info.Arrival
		}
	}
	return -1, 0
}

func forkMutations(swap func() sched.Policy) []forkMutation {
	return []forkMutation{
		{"none", func(t *testing.T, e *Engine) {}},
		{"inject", func(t *testing.T, e *Engine) {
			j := &trace.Job{
				ID:       9_000_000,
				Name:     "injected",
				Arrival:  e.Now() + 1.5,
				Deadline: e.Now() + 400,
				Template: injectTemplate(),
			}
			if err := e.InjectJob(j); err != nil {
				t.Fatalf("InjectJob: %v", err)
			}
		}},
		{"deadline", func(t *testing.T, e *Engine) {
			id, arr := firstUnarrivedID(e)
			if id < 0 {
				return // branch point past the last arrival: nothing to move
			}
			if err := e.SetDeadline(id, arr+137.5); err != nil {
				t.Fatalf("SetDeadline: %v", err)
			}
		}},
		{"swap-policy", func(t *testing.T, e *Engine) {
			if err := e.SetPolicy(swap()); err != nil {
				t.Fatalf("SetPolicy: %v", err)
			}
		}},
	}
}

// pauseAt arms a fresh engine with a recording sink and runs it to the
// fork point.
func pauseAt(t *testing.T, cfg Config, tr *trace.Trace, p sched.Policy, events uint64) (*Engine, *obs.RecordSink) {
	t.Helper()
	sink := &obs.RecordSink{}
	cfg.Sink = sink
	e, err := New(cfg, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(events); err != nil {
		t.Fatalf("RunEvents(%d): %v", events, err)
	}
	return e, sink
}

// assertForkMatchesScratch is the per-cell oracle. mk builds the replay
// policy (fresh instance per engine — indexed policies are stateful).
func assertForkMatchesScratch(t *testing.T, cfg Config, tr *trace.Trace, mk func() sched.Policy, forkEvents uint64, mut forkMutation) {
	t.Helper()

	// Fork path: prefix replay to the branch point, seal, branch.
	prefix, prefixSink := pauseAt(t, cfg, tr, mk(), forkEvents)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	forkSink := &obs.RecordSink{}
	opts := ForkOptions{Sink: forkSink}
	if _, batch := prefix.policy.(sched.BatchPolicy); batch {
		opts.Policy = mk() // stateful: fresh instance per fork
	} // else nil: exercise the shared-policy path
	fork, err := snap.Fork(opts)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	mut.apply(t, fork)
	forkRes, err := fork.Run()
	if err != nil {
		t.Fatalf("fork Run: %v", err)
	}

	// Scratch path: same pause, same mutation methods, one engine.
	scratch, scratchSink := pauseAt(t, cfg, tr, mk(), forkEvents)
	mut.apply(t, scratch)
	scratchRes, err := scratch.Run()
	if err != nil {
		t.Fatalf("scratch Run: %v", err)
	}

	if forkRes.Events != scratchRes.Events || forkRes.Makespan != scratchRes.Makespan {
		t.Fatalf("fork: events %d vs %d, makespan %v vs %v",
			forkRes.Events, scratchRes.Events, forkRes.Makespan, scratchRes.Makespan)
	}
	if !reflect.DeepEqual(forkRes.Jobs, scratchRes.Jobs) {
		for i := range scratchRes.Jobs {
			if i >= len(forkRes.Jobs) || !reflect.DeepEqual(forkRes.Jobs[i], scratchRes.Jobs[i]) {
				t.Fatalf("job outcome %d diverged:\n fork    %+v\n scratch %+v",
					i, forkRes.Jobs[i], scratchRes.Jobs[i])
			}
		}
		t.Fatal("job outcomes diverged")
	}

	// Obs stream: prefix events ++ fork events must equal the scratch
	// stream — the branch's logical history is whole.
	if got, want := len(prefixSink.Events)+len(forkSink.Events), len(scratchSink.Events); got != want {
		t.Fatalf("obs stream length %d (prefix %d + fork %d), want %d",
			got, len(prefixSink.Events), len(forkSink.Events), want)
	}
	for i, want := range scratchSink.Events {
		var got obs.Event
		if i < len(prefixSink.Events) {
			got = prefixSink.Events[i]
		} else {
			got = forkSink.Events[i-len(prefixSink.Events)]
		}
		if got != want {
			t.Fatalf("obs event %d diverged:\n fork-side %+v\n scratch   %+v", i, got, want)
		}
	}
	if prefixSink.Ended {
		t.Fatal("prefix sink saw RunEnd before the branch finished")
	}
	if !forkSink.Ended || forkSink.Counters != scratchSink.Counters {
		t.Fatalf("run counters diverged:\n fork    %+v (ended %v)\n scratch %+v",
			forkSink.Counters, forkSink.Ended, scratchSink.Counters)
	}
}

// forkPolicyVariants enumerates the full PR 5 policy suite in both scan
// and indexed form, with the matching policy-swap target for the
// swap-policy mutation (scan swaps to scan, indexed to indexed).
func forkPolicyVariants() []struct {
	name string
	mk   func() sched.Policy
	swap func() sched.Policy
} {
	var out []struct {
		name string
		mk   func() sched.Policy
		swap func() sched.Policy
	}
	for _, pc := range diffPolicies() {
		pc := pc
		out = append(out,
			struct {
				name string
				mk   func() sched.Policy
				swap func() sched.Policy
			}{pc.name + "/scan", pc.mk, func() sched.Policy { return sched.MaxEDF{} }},
			struct {
				name string
				mk   func() sched.Policy
				swap func() sched.Policy
			}{pc.name + "/indexed", func() sched.Policy { return sched.Indexed(pc.mk()) },
				func() sched.Policy { return sched.Indexed(sched.MaxEDF{}) }},
		)
	}
	return out
}

// TestForkDifferential is the headline oracle: every policy in the PR 5
// suite, scan and indexed, forked at randomized event indices (plus the
// t=0 and beyond-the-end edges) with each mutation kind, must match the
// from-scratch replay byte-for-byte.
func TestForkDifferential(t *testing.T) {
	jobs := 120
	if raceDetectorEnabled {
		jobs = 50
	}
	tr, err := synth.MultiTenantTrace(jobs, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	total, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			muts := forkMutations(pv.swap)
			// One randomized interior fork point per mutation, plus the
			// edges on the "none" mutation.
			points := []uint64{
				uint64(rng.Int63n(int64(total.Events-2))) + 1,
				0,                // t=0: nothing fired, all arrivals pending
				total.Events + 7, // beyond the end: fork of a finished replay
			}
			for i, mut := range muts {
				mut := mut
				forkAt := points[0]
				if mut.name == "none" {
					forkAt = points[1+i%2] // cover both edges across runs
				}
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, forkAt, mut)
				})
			}
			// Deep branch point (~90%), the bench-guard shape.
			t.Run("deep", func(t *testing.T) {
				assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, total.Events*9/10, forkMutations(pv.swap)[1])
			})
		})
	}
}

// TestForkDifferentialPreemption forks mid-flight with map-task
// preemption on: running-map event handles and the preemption index are
// the hardest state to remap, and deadline policies churn them.
func TestForkDifferentialPreemption(t *testing.T) {
	jobs := 200
	if raceDetectorEnabled {
		jobs = 60
	}
	tr, err := synth.MultiTenantTrace(jobs, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	total, err := Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7777))
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			for _, mut := range []int{0, 1, 3} { // none, inject, swap-policy
				mut := forkMutations(pv.swap)[mut]
				forkAt := uint64(rng.Int63n(int64(total.Events-2))) + 1
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, cfg, tr, pv.mk, forkAt, mut)
				})
			}
		})
	}
}

// TestForkDifferentialConfigs forks under the ablation configs — tight
// slots (starvation churn), no-shuffle, spans recording (per-job span
// slices must be unshared) — at a mid-trace branch point.
func TestForkDifferentialConfigs(t *testing.T) {
	tr, err := synth.MultiTenantTrace(80, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"tight-slots", Config{MapSlots: 4, ReduceSlots: 2, MinMapPercentCompleted: 0.5}},
		{"no-shuffle", Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05, NoShuffleModel: true}},
		{"spans", Config{MapSlots: 16, ReduceSlots: 16, MinMapPercentCompleted: 0.05, RecordSpans: true, PreemptMapTasks: true}},
	}
	for _, cc := range cfgs {
		cc := cc
		total, err := Run(cc.cfg, tr, sched.MinEDF{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pv := range forkPolicyVariants() {
			pv := pv
			t.Run(cc.name+"/"+pv.name, func(t *testing.T) {
				mut := forkMutations(pv.swap)[1] // inject
				assertForkMatchesScratch(t, cc.cfg, tr, pv.mk, total.Events/2, mut)
			})
		}
	}
}

// TestForkDifferentialSparseIDs forks a replay whose job IDs force the
// indexOf map path, then injects — exercising the borrowed-map
// copy-on-write in ownIndex.
func TestForkDifferentialSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := &trace.Trace{Name: "sparse-fork"}
	for i := 0; i < 30; i++ {
		tpl := injectTemplate()
		job := &trace.Job{
			ID:       i*11 + 5,
			Arrival:  float64(i) * 2,
			Template: tpl,
		}
		if i%2 == 0 {
			job.Deadline = job.Arrival + 120 + float64(rng.Intn(80))
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	total, err := Run(DefaultConfig(), tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pv := range forkPolicyVariants() {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			for _, mut := range forkMutations(pv.swap) {
				mut := mut
				t.Run(mut.name, func(t *testing.T) {
					assertForkMatchesScratch(t, DefaultConfig(), tr, pv.mk, total.Events/3, mut)
				})
			}
		})
	}
}

// TestForkOfFork seals a running fork (the materialize path: borrowed
// chunks are copied, the source link dropped) and branches again; the
// grandchild must still match a scratch replay paused at the second
// branch point with both mutations applied in order.
func TestForkOfFork(t *testing.T) {
	tr, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, err := Run(cfg, tr, sched.MinEDF{})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := total.Events/4, total.Events*3/4

	inject := func(t *testing.T, e *Engine, id int) {
		t.Helper()
		if err := e.InjectJob(&trace.Job{
			ID: id, Arrival: e.Now() + 1, Deadline: e.Now() + 300, Template: injectTemplate(),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Fork chain: pause at k1, fork+inject, run to k2, seal the fork,
	// fork again + inject, run to end.
	prefix, prefixSink := pauseAt(t, cfg, tr, sched.MinEDF{}, k1)
	snap1, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	midSink := &obs.RecordSink{}
	mid, err := snap1.Fork(ForkOptions{Sink: midSink})
	if err != nil {
		t.Fatal(err)
	}
	inject(t, mid, 9_000_001)
	if _, err := mid.RunEvents(k2); err != nil {
		t.Fatal(err)
	}
	snap2, err := mid.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if mid.src != nil {
		t.Fatal("sealing a fork did not materialize it: src link still set")
	}
	leafSink := &obs.RecordSink{}
	leaf, err := snap2.Fork(ForkOptions{Sink: leafSink})
	if err != nil {
		t.Fatal(err)
	}
	inject(t, leaf, 9_000_002)
	leafRes, err := leaf.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Scratch: one engine, same pauses, same injections.
	scratch, scratchSink := pauseAt(t, cfg, tr, sched.MinEDF{}, k1)
	inject(t, scratch, 9_000_001)
	if _, err := scratch.RunEvents(k2); err != nil {
		t.Fatal(err)
	}
	inject(t, scratch, 9_000_002)
	scratchRes, err := scratch.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(leafRes, scratchRes) {
		t.Fatalf("fork-of-fork diverged:\n leaf    %+v\n scratch %+v", leafRes, scratchRes)
	}
	gotLen := len(prefixSink.Events) + len(midSink.Events) + len(leafSink.Events)
	if gotLen != len(scratchSink.Events) {
		t.Fatalf("obs stream length %d, want %d", gotLen, len(scratchSink.Events))
	}
}

// TestForkConcurrent fans 8 forks out of one snapshot from 8 goroutines
// — under -race this is the lock-free shared-snapshot proof. Each fork
// applies a distinct mutation; each must match its own serial scratch.
func TestForkConcurrent(t *testing.T) {
	tr, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreemptMapTasks = true
	total, err := Run(cfg, tr, sched.Indexed(sched.MinEDF{}))
	if err != nil {
		t.Fatal(err)
	}
	forkAt := total.Events / 2

	prefix, _ := pauseAt(t, cfg, tr, sched.Indexed(sched.MinEDF{}), forkAt)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	const branches = 8
	results := make([]*Result, branches)
	errs := make([]error, branches)
	var wg sync.WaitGroup
	wg.Add(branches)
	for i := 0; i < branches; i++ {
		go func(i int) {
			defer wg.Done()
			f, err := snap.Fork(ForkOptions{Policy: sched.Indexed(sched.MinEDF{})})
			if err != nil {
				errs[i] = err
				return
			}
			if err := f.InjectJob(&trace.Job{
				ID:      9_100_000 + i,
				Arrival: f.Now() + float64(i)*0.5, Deadline: f.Now() + 200 + float64(i),
				Template: injectTemplate(),
			}); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = f.Run()
		}(i)
	}
	wg.Wait()

	for i := 0; i < branches; i++ {
		if errs[i] != nil {
			t.Fatalf("branch %d: %v", i, errs[i])
		}
		scratch, _ := pauseAt(t, cfg, tr, sched.Indexed(sched.MinEDF{}), forkAt)
		if err := scratch.InjectJob(&trace.Job{
			ID:      9_100_000 + i,
			Arrival: scratch.Now() + float64(i)*0.5, Deadline: scratch.Now() + 200 + float64(i),
			Template: injectTemplate(),
		}); err != nil {
			t.Fatal(err)
		}
		want, err := scratch.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent branch %d diverged from its serial scratch", i)
		}
	}
}

// TestForkIntoRecyclesEngine pins the pooled-fork path: ForkInto a dirty
// used engine must produce the same branch as a fresh Fork, and the
// steady-state re-fork must not grow allocations.
func TestForkIntoRecyclesEngine(t *testing.T) {
	tr, err := synth.MultiTenantTrace(80, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pauseAt(t, cfg, tr, sched.FIFO{}, total.Events/2)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Dirty destination: a full unrelated replay, then recycle it.
	other, err := synth.MultiTenantTrace(40, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(cfg, other, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Run(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := snap.ForkInto(dst, ForkOptions{}); err != nil {
			t.Fatal(err)
		}
		got, err := dst.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Fatalf("recycled fork round %d diverged from fresh fork", round)
		}
	}
}

// TestForkStatsAccounting checks the bytes-copied/shared telemetry
// invariant: the slab total is conserved as chunks migrate from shared
// to copied, and a branch that runs to completion copies no more than
// the whole slab.
func TestForkStatsAccounting(t *testing.T) {
	tr, err := synth.MultiTenantTrace(100, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, err := Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pauseAt(t, cfg, tr, sched.FIFO{}, total.Events*9/10)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := snap.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	at := fork.ForkStats()
	slab := at.BytesShared // nothing dirtied yet beyond the active set... which IS dirtied
	sum := at.BytesCopied + at.BytesShared
	if at.BytesCopied == 0 {
		t.Fatal("fork copied zero bytes: queue clone unaccounted")
	}
	if _, err := fork.Run(); err != nil {
		t.Fatal(err)
	}
	after := fork.ForkStats()
	if got := after.BytesCopied + after.BytesShared; got != sum {
		t.Fatalf("stats sum not conserved: %d at fork, %d after run", sum, got)
	}
	if after.BytesCopied < at.BytesCopied || after.BytesShared > slab {
		t.Fatalf("stats moved backwards: %+v -> %+v", at, after)
	}
	if s, err := prefix.Snapshot(); err != nil || s != snap {
		t.Fatalf("Snapshot not idempotent: %v %v", s, err)
	}
}

// TestForkSharesArrivalLane pins what a fork copies of pending
// arrivals: nothing but the lane cursor. A fork before the first event
// has every arrival pending and no heap event, so it copies zero bytes
// while still counting every arrival as pending.
func TestForkSharesArrivalLane(t *testing.T) {
	tr, err := synth.MultiTenantTrace(100, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := pauseAt(t, DefaultConfig(), tr, sched.FIFO{}, 0)
	fork, err := prefix.Fork(ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fork.ForkStats().BytesCopied; got != 0 {
		t.Fatalf("fork at t=0 copied %d bytes, want 0", got)
	}
	if fork.q.Len() != len(tr.Jobs) || fork.q.LaneLen() != len(tr.Jobs) {
		t.Fatalf("fork pending %d (lane %d), want %d arrivals", fork.q.Len(), fork.q.LaneLen(), len(tr.Jobs))
	}
}

// TestForkAPIErrors pins the guard rails: sealed engines reject Run and
// mutation, forks of batch-policy snapshots need a fresh instance,
// destinations can't be the source or sealed, mutations validate their
// inputs.
func TestForkAPIErrors(t *testing.T) {
	tr, err := synth.MultiTenantTrace(20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	e, err := New(cfg, tr, sched.Indexed(sched.MinEDF{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(10); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("Run on a sealed engine did not error")
	}
	if err := e.InjectJob(&trace.Job{ID: 999, Arrival: 1e9, Template: injectTemplate()}); err == nil {
		t.Fatal("InjectJob on a sealed engine did not error")
	}
	if _, err := snap.Fork(ForkOptions{}); err == nil {
		t.Fatal("nil-policy fork of a batch-policy snapshot did not error")
	}
	if err := snap.ForkInto(e, ForkOptions{Policy: sched.Indexed(sched.MinEDF{})}); err == nil {
		t.Fatal("ForkInto the snapshot's own source did not error")
	}

	f, err := snap.Fork(ForkOptions{Policy: sched.Indexed(sched.MinEDF{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectJob(&trace.Job{ID: 0, Arrival: f.Now() + 1, Template: injectTemplate()}); err == nil {
		t.Fatal("duplicate job ID injection did not error")
	}
	if err := f.InjectJob(&trace.Job{ID: 999, Arrival: f.Now() - 1, Template: injectTemplate()}); err == nil {
		t.Fatal("past-arrival injection did not error")
	}
	if err := f.SetDeadline(0, 50); err == nil {
		t.Fatal("SetDeadline on an arrived job did not error")
	}
	if err := f.SetDeadline(424242, 50); err == nil {
		t.Fatal("SetDeadline on an unknown job did not error")
	}
	if err := f.SetPolicy(nil); err == nil {
		t.Fatal("SetPolicy(nil) did not error")
	}

	// Reset un-seals: the source engine is an ordinary engine again.
	if err := e.Reset(cfg, tr, sched.Indexed(sched.MinEDF{})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after un-sealing Reset: %v", err)
	}

	// Mutations on an idle (never-started) engine are rejected.
	idle, err := New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.InjectJob(&trace.Job{ID: 999, Arrival: 1, Template: injectTemplate()}); err == nil {
		t.Fatal("InjectJob on an idle engine did not error")
	}
}

// TestForkRevivesDoneReplay forks past the end of the trace and injects:
// the branch must come back to life and run the injected job exactly as
// a scratch replay does.
func TestForkRevivesDoneReplay(t *testing.T) {
	tr, err := synth.MultiTenantTrace(20, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	prefix, prefixSink := pauseAt(t, cfg, tr, sched.FIFO{}, 1<<62)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done() {
		t.Fatal("snapshot of a drained replay is not Done")
	}
	forkSink := &obs.RecordSink{}
	fork, err := snap.Fork(ForkOptions{Sink: forkSink})
	if err != nil {
		t.Fatal(err)
	}
	inj := &trace.Job{ID: 9_000_000, Arrival: fork.Now() + 10, Deadline: fork.Now() + 500, Template: injectTemplate()}
	if err := fork.InjectJob(inj); err != nil {
		t.Fatal(err)
	}
	forkRes, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}

	scratch, scratchSink := pauseAt(t, cfg, tr, sched.FIFO{}, 1<<62)
	if err := scratch.InjectJob(inj); err != nil {
		t.Fatal(err)
	}
	scratchRes, err := scratch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forkRes, scratchRes) {
		t.Fatal("revived fork diverged from revived scratch replay")
	}
	if got, want := len(prefixSink.Events)+len(forkSink.Events), len(scratchSink.Events); got != want {
		t.Fatalf("obs stream length %d, want %d", got, want)
	}
	if forkRes.Jobs[len(forkRes.Jobs)-1].ID != inj.ID {
		t.Fatal("injected job missing from the revived branch's outcomes")
	}
}
