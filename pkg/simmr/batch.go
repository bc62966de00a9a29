package simmr

import (
	"context"
	"fmt"

	"simmr/internal/cellexec"
	"simmr/internal/engine"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ReplaySpec is one unit of a ReplayBatch: a trace replayed under a
// policy and engine configuration. The zero-value Config means
// DefaultReplayConfig (Config.Sink may be set on an otherwise-zero
// Config without losing the defaults); a nil Policy means FIFO. Traces
// may be shared between specs (and with the caller) — the engine
// treats them as read-only. Config.Sink must NOT be shared between
// specs: sinks are single-goroutine, one per engine (obs.Sink).
type ReplaySpec struct {
	// Name labels the spec in error messages; defaults to the trace name.
	Name   string
	Config ReplayConfig
	Trace  *Trace
	// Policy must be stateless if the same value is reused across specs
	// (all built-ins except DynamicPriority are); give each spec its own
	// instance otherwise.
	Policy Policy
}

// ReplayBatch replays N independent simulations — any mix of traces,
// policies, and configurations — concurrently on a bounded worker pool
// (one worker per CPU). Results come back in spec order, identical to
// running each spec serially; the first failing spec's error (lowest
// index) is returned. ReplayBatchCfg adds worker, progress,
// cancellation, and observability control.
func ReplayBatch(specs []ReplaySpec) ([]*ReplayResult, error) {
	return ReplayBatchCfg(context.Background(), BatchConfig{}, specs)
}

// BatchConfig parameterizes ReplayBatchCfg beyond the specs themselves.
type BatchConfig struct {
	// Workers bounds concurrent replays: 0 means one worker per CPU, 1
	// forces the serial path. Results are in spec order regardless.
	Workers int
	// Progress, when set, receives bounded-rate (done, total) callbacks.
	Progress ProgressFunc
	// Telemetry, when set, records the batch into the sharded metrics
	// registry: per-spec engine events and duration histograms (one
	// lock-free sink shard per spec), per-replay wall time and
	// events/sec, and the engine pool's reuse hit rate.
	Telemetry *Telemetry
	// Runs, when set, registers the batch in the ops-plane run registry
	// (kind "batch") — see SweepConfig.Runs.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every spec's engine (-1 selects the default; 0 disables) —
	// see SweepConfig.Flight.
	Flight int
	// Cache, when set, memoizes specs through the content-addressed
	// replay result cache — see SweepConfig.Cache for the semantics
	// (cached specs skip the engine and their sinks do not fire).
	Cache *Cache
}

// options maps the batch's flat fields onto the cell executor's.
func (b BatchConfig) options() cellexec.Options {
	return cellexec.Options{Workers: b.Workers, Progress: b.Progress, Telemetry: b.Telemetry,
		Runs: b.Runs, Flight: b.Flight, Cache: b.Cache}
}

// ReplayBatchCfg is the fully configurable batch entry point: cancel
// ctx to stop the remaining specs.
func ReplayBatchCfg(ctx context.Context, bcfg BatchConfig, specs []ReplaySpec) ([]*ReplayResult, error) {
	for i := range specs {
		if specs[i].Trace == nil || len(specs[i].Trace.Jobs) == 0 {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(&specs[i]), ErrEmptyWorkload)
		}
	}
	ex := cellexec.Begin(bcfg.options(), len(specs), runs.KindBatch, batchTrace(specs), nil,
		fmt.Sprintf("specs=%d", len(specs)))
	ex.Handle().SetPhase("replay")
	results, err := cellexec.Map(ctx, ex, len(specs), func(_ context.Context, i int) (*ReplayResult, error) {
		spec := &specs[i]
		policy := spec.Policy
		if policy == nil {
			policy = sched.FIFO{}
		}
		res, _, err := ex.Replay(withDefaults(spec.Config), spec.Trace, policy, specName(spec), nil)
		if err != nil {
			return nil, fmt.Errorf("simmr: replay batch spec %d (%s): %w", i, specName(spec), err)
		}
		return res, nil
	})
	ex.End(err)
	return results, err
}

// withDefaults maps a zero Config to DefaultReplayConfig: a config
// that only sets an observability sink still gets the default cluster.
func withDefaults(cfg ReplayConfig) ReplayConfig {
	sink := cfg.Sink
	cfg.Sink = nil
	if cfg == (ReplayConfig{}) {
		cfg = engine.DefaultConfig()
	}
	cfg.Sink = sink
	return cfg
}

// batchTrace names a batch's workload for the run registry: the shared
// trace when every spec replays the same one, nil (anonymous) for a
// mixed batch.
func batchTrace(specs []ReplaySpec) *Trace {
	if len(specs) == 0 {
		return nil
	}
	tr := specs[0].Trace
	for i := 1; i < len(specs); i++ {
		if specs[i].Trace != tr {
			return nil
		}
	}
	return tr
}

func specName(s *ReplaySpec) string {
	if s.Name != "" {
		return s.Name
	}
	if s.Trace != nil && s.Trace.Name != "" {
		return s.Trace.Name
	}
	return "unnamed"
}
