package simmr

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// Satellite 4: per-engine sinks in a parallel batch must be isolated —
// each spec's sink records exactly what a serial replay of that spec
// would record, with no cross-engine bleed. Run under -race (make
// verify) this also proves the one-sink-per-engine contract holds
// through the worker pool.
func TestReplayBatchSinkIsolation(t *testing.T) {
	tr := sweepTrace()
	const n = 12
	mkSpecs := func(sinks []*RecordSink) []ReplaySpec {
		specs := make([]ReplaySpec, n)
		for i := range specs {
			specs[i] = ReplaySpec{
				// Vary the cluster per spec so each sink sees a distinct
				// event stream — bleed between engines cannot cancel out.
				Config: ReplayConfig{
					MapSlots:               1 + i%4,
					ReduceSlots:            1 + i%2,
					MinMapPercentCompleted: 0.05,
					Sink:                   sinks[i],
				},
				Trace: tr, // shared read-only across all specs
			}
		}
		return specs
	}

	serialSinks := make([]*RecordSink, n)
	parallelSinks := make([]*RecordSink, n)
	for i := range serialSinks {
		serialSinks[i] = &RecordSink{}
		parallelSinks[i] = &RecordSink{}
	}
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 1}, mkSpecs(serialSinks)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 8}, mkSpecs(parallelSinks)); err != nil {
		t.Fatal(err)
	}
	for i := range serialSinks {
		if !reflect.DeepEqual(serialSinks[i], parallelSinks[i]) {
			t.Errorf("spec %d: parallel sink diverged from serial\nserial:   %+v\nparallel: %+v",
				i, serialSinks[i].Counters, parallelSinks[i].Counters)
		}
		if !parallelSinks[i].Ended || len(parallelSinks[i].Events) == 0 {
			t.Errorf("spec %d: sink not driven: %+v", i, parallelSinks[i])
		}
	}
}

// A spec that sets only a sink on an otherwise-zero Config must still
// replay under the default cluster configuration.
func TestReplayBatchSinkKeepsDefaultConfig(t *testing.T) {
	tr := sweepTrace()
	rec := &RecordSink{}
	var cfg ReplayConfig
	cfg.Sink = rec
	withSink, err := ReplayBatch([]ReplaySpec{{Config: cfg, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ReplayBatch([]ReplaySpec{{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if withSink[0].Makespan != plain[0].Makespan {
		t.Fatalf("sink-only config lost the defaults: makespan %v vs %v",
			withSink[0].Makespan, plain[0].Makespan)
	}
	if !rec.Ended {
		t.Fatal("sink not driven")
	}
}

// SinkFactory gives each sweep cell its own sink; a shared Telemetry
// (one lock-free registry shard per cell sink) may aggregate across
// all of them.
func TestCapacitySweepSinkFactory(t *testing.T) {
	tr := sweepTrace()
	tel := NewTelemetry()
	tel.ExpectRuns(6)
	var mu sync.Mutex
	perCell := map[[2]int]*RecordSink{}
	pts, err := CapacitySweep(tr, SweepConfig{
		MapSlotCounts:    []int{2, 4, 8},
		ReduceSlotCounts: []int{2, 4},
		SinkFactory: func(mapSlots, reduceSlots int) Sink {
			rec := &RecordSink{}
			mu.Lock()
			perCell[[2]int{mapSlots, reduceSlots}] = rec
			mu.Unlock()
			return TeeSinks(rec, tel.EngineSink())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perCell) != len(pts) {
		t.Fatalf("factory called for %d cells, %d points", len(perCell), len(pts))
	}
	for cell, rec := range perCell {
		if !rec.Ended || len(rec.Events) == 0 {
			t.Errorf("cell %v: sink not driven", cell)
		}
	}
	v := tel.ExpvarValue().(map[string]any)
	if got := v["jobs"].(uint64); got != uint64(len(pts)*len(tr.Jobs)) {
		t.Fatalf("aggregated jobs = %d, want %d", got, len(pts)*len(tr.Jobs))
	}
	if v["observed_events"].(uint64) == 0 || !v["done"].(bool) {
		t.Fatalf("telemetry snapshot %+v", v)
	}
}

// The batch progress plumbing: a final (total, total) call arrives
// exactly once for both batches and sweeps.
func TestBatchAndSweepProgress(t *testing.T) {
	tr := sweepTrace()
	specs := make([]ReplaySpec, 6)
	for i := range specs {
		specs[i] = ReplaySpec{Trace: tr}
	}
	var batchFinals atomic.Int64
	if _, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 3, Progress: func(done, total int) {
		if done == total && total == len(specs) {
			batchFinals.Add(1)
		}
	}}, specs); err != nil {
		t.Fatal(err)
	}
	if batchFinals.Load() != 1 {
		t.Fatalf("batch final progress delivered %d times", batchFinals.Load())
	}

	var sweepFinals atomic.Int64
	if _, err := CapacitySweep(tr, SweepConfig{
		MapSlotCounts: []int{2, 4, 8, 16},
		Progress: func(done, total int) {
			if done == total && total == 4 {
				sweepFinals.Add(1)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if sweepFinals.Load() != 1 {
		t.Fatalf("sweep final progress delivered %d times", sweepFinals.Load())
	}
}
