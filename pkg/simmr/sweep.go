package simmr

import (
	"context"
	"errors"
	"fmt"

	"simmr/internal/cellexec"
	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/runs"
	"simmr/internal/sched"
)

// ProgressFunc receives bounded-rate completion callbacks from the
// worker pool: done grid cells (or batch specs) out of total. See
// parallel.ProgressFunc for the delivery contract — calls are at least
// parallel.MinProgressInterval apart (final call excepted), may arrive
// concurrently from worker goroutines, and never serialize the pool.
type ProgressFunc = parallel.ProgressFunc

// ErrEmptyWorkload is returned by CapacitySweep and ReplayBatch when
// asked to simulate a workload with no jobs: every per-job statistic
// (mean completion, deadline misses) would be undefined.
var ErrEmptyWorkload = errors.New("simmr: empty workload")

// SweepPoint is one cell of a capacity-planning sweep: the replay
// outcome of the workload on a cluster with the given slot counts.
type SweepPoint struct {
	// Cell is the point's global grid index (map-slot major), stable
	// across sharded execution — MergeSweepPoints reassembles shard
	// outputs in grid order by it.
	Cell                  int
	MapSlots, ReduceSlots int
	Makespan              float64
	MeanCompletion        float64
	MaxCompletion         float64
	DeadlinesMissed       int
}

// SweepConfig parameterizes CapacitySweep.
type SweepConfig struct {
	// MapSlotCounts and ReduceSlotCounts are the grid axes. If
	// ReduceSlotCounts is nil, reduce slots track map slots (a square
	// sweep, the common what-if).
	MapSlotCounts    []int
	ReduceSlotCounts []int
	// Policy defaults to FIFO. The policy value is shared by every
	// concurrent cell, so it must be stateless (all built-in policies
	// except DynamicPriority are); stateful schedulers need PolicyFactory.
	Policy Policy
	// PolicyFactory, when set, builds a fresh policy per cell and takes
	// precedence over Policy. Required for stateful schedulers such as
	// DynamicPriority.
	PolicyFactory func() Policy
	// MinMapPercentCompleted defaults to 0.05.
	MinMapPercentCompleted float64
	// Workers bounds the number of cells replayed concurrently: 0 means
	// one worker per CPU, 1 forces the serial path. Results are in grid
	// order and identical regardless of the worker count.
	Workers int
	// Progress, when set, receives bounded-rate completion callbacks
	// (done cells, total cells) while the sweep runs.
	Progress ProgressFunc
	// SinkFactory, when set, builds one observability sink per grid
	// cell (called from the worker goroutine, so it must be safe for
	// concurrent calls); each cell's engine gets its own sink, keeping
	// sinks single-goroutine as obs.Sink requires.
	SinkFactory func(mapSlots, reduceSlots int) obs.Sink
	// Telemetry, when set, records the sweep into the sharded metrics
	// registry: per-cell engine events and task-duration histograms
	// (one lock-free sink shard per cell), per-replay wall time and
	// events/sec, and the engine pool's reuse hit rate. Nil costs
	// nothing — the hot path is never touched.
	Telemetry *Telemetry
	// Runs, when set, registers the sweep in the ops-plane run registry
	// (kind "sweep", live cell progress, accumulated engine totals,
	// outcome) — pass DefaultRuns() to surface it on the debug server's
	// /runs endpoints. Nil costs nothing.
	Runs *RunRegistry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every cell's engine (-1 selects the 4096-event default):
	// deadline misses and errors capture post-mortems automatically,
	// and POST /runs/{id}/flight triggers live ones. 0 disables.
	Flight int
	// Cache, when set, memoizes cells through the content-addressed
	// replay result cache: each cell consults the cache before claiming
	// an engine from the pool, and stores its result after replaying.
	// Cached cells skip the engine entirely, so SinkFactory, Flight,
	// and per-replay telemetry do not fire for them; the run registry
	// counts them (Snapshot.Cached) and a fully cached sweep ends in
	// phase "cached". Policies without a stable fingerprint bypass the
	// cache. Nil disables caching.
	Cache *Cache
	// Shards/ShardIndex partition the grid for multi-process execution:
	// with Shards = N > 1, only cells whose global grid index ≡
	// ShardIndex (mod N) are replayed, and each process can share one
	// mmapped packed trace read-only. Shards 0 or 1 runs the whole
	// grid. Reassemble shard outputs with MergeSweepPoints.
	Shards     int
	ShardIndex int
}

// sweepCell is one (map slots, reduce slots) grid position.
type sweepCell struct{ m, r int }

// CapacitySweep replays a workload across a grid of cluster sizes — the
// §I provisioning question ("one has to evaluate whether additional
// resources are required") answered in simulation. Cells are replayed
// concurrently on a bounded worker pool against the shared, read-only
// trace (the engine never mutates it, so no per-cell clone is taken);
// results come back in grid order (map-slot major) and are
// byte-identical to a serial sweep.
func CapacitySweep(tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	return CapacitySweepCtx(context.Background(), tr, cfg)
}

// CapacitySweepCtx is CapacitySweep with cancellation: canceling ctx
// stops the remaining cells and returns the context's error.
func CapacitySweepCtx(ctx context.Context, tr *Trace, cfg SweepConfig) ([]SweepPoint, error) {
	if len(cfg.MapSlotCounts) == 0 {
		return nil, fmt.Errorf("simmr: sweep needs at least one map-slot count")
	}
	if tr == nil || len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("simmr: capacity sweep: %w", ErrEmptyWorkload)
	}
	newPolicy := cfg.PolicyFactory
	if newPolicy == nil {
		policy := cfg.Policy
		if policy == nil {
			policy = sched.FIFO{}
		}
		newPolicy = func() Policy { return policy }
	}
	slowstart := cfg.MinMapPercentCompleted
	if slowstart == 0 {
		slowstart = 0.05
	}

	// Flatten the grid up front: preallocates the output exactly and
	// avoids the old per-map-slot []int{m} allocation for square sweeps.
	rows := len(cfg.ReduceSlotCounts)
	if rows == 0 {
		rows = 1
	}
	cells := make([]sweepCell, 0, len(cfg.MapSlotCounts)*rows)
	for _, m := range cfg.MapSlotCounts {
		if cfg.ReduceSlotCounts == nil {
			cells = append(cells, sweepCell{m, m})
			continue
		}
		for _, r := range cfg.ReduceSlotCounts {
			cells = append(cells, sweepCell{m, r})
		}
	}

	// Shard selection: this process replays only its residue class of
	// the grid. Global cell indices ride along in the output so
	// MergeSweepPoints can reassemble grid order across processes.
	sel := make([]int, 0, len(cells))
	switch {
	case cfg.Shards < 0:
		return nil, fmt.Errorf("simmr: sweep shards = %d", cfg.Shards)
	case cfg.Shards <= 1:
		if cfg.ShardIndex != 0 {
			return nil, fmt.Errorf("simmr: sweep shard index %d without sharding", cfg.ShardIndex)
		}
		for i := range cells {
			sel = append(sel, i)
		}
	default:
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.Shards {
			return nil, fmt.Errorf("simmr: sweep shard index %d outside [0,%d)", cfg.ShardIndex, cfg.Shards)
		}
		for i := cfg.ShardIndex; i < len(cells); i += cfg.Shards {
			sel = append(sel, i)
		}
		if len(sel) == 0 {
			return []SweepPoint{}, nil
		}
	}

	ex := cellexec.Begin(cfg.options(), len(sel), runs.KindSweep, tr, cfg.Policy,
		fmt.Sprintf("grid=%dx%d shards=%d", len(cfg.MapSlotCounts), rows, max(cfg.Shards, 1)))
	ex.Handle().SetPhase("replay")
	points, err := cellexec.Map(ctx, ex, len(sel), func(_ context.Context, i int) (SweepPoint, error) {
		cell := sel[i]
		c := cells[cell]
		ecfg := engine.Config{
			MapSlots:               c.m,
			ReduceSlots:            c.r,
			MinMapPercentCompleted: slowstart,
		}
		var sink func() obs.Sink
		if cfg.SinkFactory != nil {
			sink = func() obs.Sink { return cfg.SinkFactory(c.m, c.r) }
		}
		res, _, err := ex.Replay(ecfg, tr, newPolicy(), fmt.Sprintf("cell-%dx%d", c.m, c.r), sink)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("simmr: sweep at %d+%d slots: %w", c.m, c.r, err)
		}
		return sweepPoint(cell, c, res), nil
	})
	ex.End(err)
	return points, err
}

// options maps the sweep's flat fields onto the cell executor's.
func (cfg SweepConfig) options() cellexec.Options {
	return cellexec.Options{Workers: cfg.Workers, Progress: cfg.Progress, Telemetry: cfg.Telemetry,
		Runs: cfg.Runs, Flight: cfg.Flight, Cache: cfg.Cache}
}

// sweepPoint condenses one replay into its sweep cell.
func sweepPoint(cell int, c sweepCell, res *engine.Result) SweepPoint {
	p := SweepPoint{Cell: cell, MapSlots: c.m, ReduceSlots: c.r, Makespan: res.Makespan}
	for _, j := range res.Jobs {
		ct := j.CompletionTime()
		p.MeanCompletion += ct
		if ct > p.MaxCompletion {
			p.MaxCompletion = ct
		}
		if j.ExceededDeadline() {
			p.DeadlinesMissed++
		}
	}
	// Guarded: engine validation rejects empty traces, but a zero
	// denominator must never yield NaN points.
	if n := len(res.Jobs); n > 0 {
		p.MeanCompletion /= float64(n)
	}
	return p
}

// MergeSweepPoints reassembles the outputs of a sharded sweep into the
// single grid-order slice an unsharded CapacitySweep would have
// produced. It requires a complete, non-overlapping cover of the grid:
// duplicate or missing cells are an error (a shard ran twice, or one
// is still outstanding).
func MergeSweepPoints(shards ...[]SweepPoint) ([]SweepPoint, error) {
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	if n == 0 {
		return nil, fmt.Errorf("simmr: merge of zero sweep points")
	}
	out := make([]SweepPoint, n)
	seen := make([]bool, n)
	for _, s := range shards {
		for _, p := range s {
			if p.Cell < 0 || p.Cell >= n {
				return nil, fmt.Errorf("simmr: sweep cell %d outside merged grid of %d", p.Cell, n)
			}
			if seen[p.Cell] {
				return nil, fmt.Errorf("simmr: duplicate sweep cell %d in merge", p.Cell)
			}
			seen[p.Cell] = true
			out[p.Cell] = p
		}
	}
	// seen is fully true here: n points, all in [0,n), no duplicates.
	return out, nil
}

// SmallestClusterMeeting returns the first sweep point (in grid order,
// i.e. smallest map-slot count first) whose makespan is at or under the
// goal, or nil.
func SmallestClusterMeeting(points []SweepPoint, makespanGoal float64) *SweepPoint {
	for i := range points {
		if points[i].Makespan <= makespanGoal {
			return &points[i]
		}
	}
	return nil
}
