// Package cellexec is the cell executor every SimMR fan-out runs on:
// capacity sweeps, replay batches, what-if branch sets, the Figure 7/8
// deadline sweeps and single replays. A cell is one replay; its
// lifecycle lives here and nowhere else:
//
//	cache key → Get → flight recorder → telemetry sink → pooled Run →
//	Put → ReplayDone
//
// and around the cells, the fan-out's own bookkeeping: one engine pool
// wired to the telemetry reuse counter, one run-registry entry, and the
// expected-run count that cached cells rebalance at End.
package cellexec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/parallel"
	"simmr/internal/rcache"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/telemetry"
	"simmr/internal/trace"
)

// Options are the execution options every fan-out shares. Each public
// config struct maps its flat fields onto them with one method.
type Options struct {
	// Workers bounds concurrent cells: 0 means one per CPU, 1 forces
	// the serial path. Results are in cell order regardless.
	Workers int
	// Progress receives bounded-rate (done, total) cell callbacks.
	Progress parallel.ProgressFunc
	// Telemetry records every replay into the sharded metrics registry.
	Telemetry *telemetry.SimMetrics
	// Runs registers the fan-out in the ops-plane run registry.
	Runs *runs.Registry
	// Flight, when Runs is set, attaches a flight recorder of this ring
	// size to every replay (-1 selects the default; 0 disables).
	Flight int
	// Cache memoizes replays through the content-addressed result cache.
	Cache *rcache.Cache
}

// Runner executes the cells of one fan-out. Begin builds it, Replay and
// Exec run cells from any number of goroutines, End closes it.
type Runner struct {
	o Options
	// pool is shared by every cell, so a fan-out holds ~one engine per
	// worker however many cells it replays; Reset makes a reused engine
	// byte-identical to a fresh one.
	pool    engine.Pool
	run     *runs.Handle
	replays int
	tr      *trace.Trace // the fan-out's shared trace, or nil
	trHash  uint64       // tr's content digest when caching
	hits    atomic.Uint64
}

// Begin starts a fan-out that expects replays replays. When o.Runs is
// set it registers as kind with the trace's identity (tr nil for a
// mixed workload), the policy's name when statically known, and the
// caller's config fingerprint. A cache key for tr itself reuses one
// content digest taken here: the digest is cell-invariant, and
// recomputing it per cell would scale the key cost by the grid size.
func Begin(o Options, replays int, kind runs.Kind, tr *trace.Trace, policy sched.Policy, config string) *Runner {
	r := &Runner{o: o, replays: replays, tr: tr}
	if tel := o.Telemetry; tel != nil {
		tel.ExpectRuns(replays)
		r.pool.OnGet = tel.PoolGet
	}
	if o.Cache != nil && tr != nil {
		r.trHash = tr.ContentHash()
	}
	if o.Runs != nil {
		meta := runs.Meta{Kind: kind, Config: config}
		if tr != nil {
			meta.Trace = tr.Name
			meta.TraceHash = fmt.Sprintf("%016x", tr.Hash())
		}
		if policy != nil {
			meta.Policy = policy.Name()
		}
		r.run = o.Runs.Begin(meta)
	}
	return r
}

// Map runs fn over n cells on the worker pool, feeding progress to the
// registry entry and Options.Progress; results come back in cell order
// and the lowest-index error wins.
func Map[T any](ctx context.Context, r *Runner, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parallel.MapProgress(ctx, r.o.Workers, n, r.run.ProgressFunc(r.o.Progress), fn)
}

// Handle is the fan-out's run-registry entry (nil when unregistered;
// every Handle method tolerates nil).
func (r *Runner) Handle() *runs.Handle { return r.run }

// Pool is the fan-out's shared engine pool, for cells that claim
// engines themselves (forks) inside Exec.
func (r *Runner) Pool() *engine.Pool { return &r.pool }

// PrefixSink wraps the sink of a history shared by every cell (a
// branch set's prefix) with the telemetry sink and, when flight
// recording is on, a prefix recorder whose Fork each cell passes to
// Exec, so a cell's post-mortem includes the shared history.
func (r *Runner) PrefixSink(sink obs.Sink) (obs.Sink, *obs.FlightRecorder) {
	sink = obs.Tee(sink, r.o.Telemetry.EngineSink())
	if r.run == nil || r.o.Flight == 0 {
		return sink, nil
	}
	rec := obs.NewFlightRecorder(r.o.Flight)
	return obs.Tee(sink, rec), rec
}

// Replay runs one cell through the cache. A hit returns the stored
// result without claiming an engine: sink is not called, no flight
// recorder is attached and no replay is recorded. A miss replays on a
// pooled engine through Exec, with sink (when non-nil) building the
// cell's observability sink in place of cfg.Sink, and stores the
// result.
func (r *Runner) Replay(cfg engine.Config, tr *trace.Trace, p sched.Policy, label string, sink func() obs.Sink) (res *engine.Result, hit bool, err error) {
	key, keyOK := r.key(cfg, tr, p)
	if keyOK {
		if res, ok := r.o.Cache.Get(key); ok {
			r.hits.Add(1)
			r.run.AddCached(1)
			r.run.AddJobs(uint64(len(res.Jobs)))
			return res, true, nil
		}
	}
	if sink != nil {
		cfg.Sink = sink()
	}
	res, err = r.Exec(label, cfg.Sink, nil, 0, func(s obs.Sink) (*engine.Result, error) {
		cfg.Sink = s
		return r.pool.Run(cfg, tr, p)
	})
	if err == nil && keyOK {
		r.o.Cache.Put(key, res)
	}
	return res, false, err
}

// key is the cell's content address, ok=false when the cache must be
// bypassed (no cache, or a policy without a stable fingerprint).
func (r *Runner) key(cfg engine.Config, tr *trace.Trace, p sched.Policy) (rcache.Key, bool) {
	if r.o.Cache == nil || tr == nil || p == nil {
		return rcache.Key{}, false
	}
	// ContentHash, not Hash: the structural hash samples only duration
	// boundaries, which would let an interior what-if edit hit stale
	// entries.
	h := r.trHash
	if tr != r.tr {
		h = tr.ContentHash()
	}
	return rcache.KeyFor(h, cfg, p)
}

// Exec runs one uncached replay. It tees a flight recorder (rec, or a
// fresh ring when rec is nil) and a telemetry sink after sink, hands
// the combined sink to replay, and records the outcome: post-mortems
// on the recorder, per-replay telemetry, registry totals. inherited is
// the event count the replay started from (a fork's shared prefix),
// which throughput and totals exclude.
func (r *Runner) Exec(label string, sink obs.Sink, rec *obs.FlightRecorder, inherited uint64, replay func(obs.Sink) (*engine.Result, error)) (*engine.Result, error) {
	if r.run != nil && r.o.Flight != 0 {
		if rec == nil {
			rec = obs.NewFlightRecorder(r.o.Flight)
		}
		rec.SetLabel(label)
		r.run.AttachFlight(rec)
		sink = obs.Tee(sink, rec)
	}
	tel := r.o.Telemetry
	var start time.Time
	if tel != nil {
		// Each replay's telemetry sink writes its own registry shard.
		sink = obs.Tee(sink, tel.EngineSink())
		start = time.Now()
	}
	res, err := replay(sink)
	if rec != nil {
		r.postMortem(rec, res, err)
	}
	if err != nil {
		return nil, err
	}
	if tel != nil {
		tel.ReplayDone(time.Since(start), res.Events-inherited)
	}
	r.run.AddEvents(res.Events - inherited)
	r.run.AddJobs(uint64(len(res.Jobs)))
	return res, nil
}

// postMortem captures the dumps the ops plane promises: "error" on a
// failed replay, "deadline-miss" when any job blew its deadline.
func (r *Runner) postMortem(rec *obs.FlightRecorder, res *engine.Result, err error) {
	if err != nil {
		r.run.AddFlightDump(rec.Dump("error"))
		return
	}
	for i := range res.Jobs {
		if res.Jobs[i].ExceededDeadline() {
			r.run.AddFlightDump(rec.Dump("deadline-miss"))
			return
		}
	}
}

// End closes the fan-out and returns its cache hits. Cached cells
// never replayed, so the expected-run count is rebalanced by them (the
// telemetry "done" view converges), and a fully cached fan-out ends in
// phase "cached".
func (r *Runner) End(err error) uint64 {
	h := r.hits.Load()
	if h > 0 {
		r.o.Telemetry.ExpectRuns(-int(h))
		if err == nil && h == uint64(r.replays) {
			r.run.SetPhase("cached")
		}
	}
	r.run.End(err)
	return h
}

// ReplayOne runs a single replay as a one-cell fan-out.
func ReplayOne(o Options, cfg engine.Config, tr *trace.Trace, p sched.Policy) (*engine.Result, bool, error) {
	r := Begin(o, 1, "", nil, nil, "")
	res, hit, err := r.Replay(cfg, tr, p, "", nil)
	r.End(err)
	return res, hit, err
}
