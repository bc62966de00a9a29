package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"simmr/pkg/simmr"
)

// size fixes the job counts of the three workloads. full is the
// benchmark; tiny is the self-test's quick version of the same shapes.
type size struct {
	name                           string
	bigJobs, sweepJobs, whatifJobs int
}

var sizes = map[string]size{
	"full": {"full", 200000, 20000, 2500},
	"tiny": {"tiny", 2000, 400, 150},
}

// workers is the fan-out width of sweep and whatif: the 2-CPU host the
// baseline was taken on.
const workers = 2

// sweepGrids are the sweep workload's two passes over square grids: the
// planner's first guess, then the refined grid that revisits it.
var sweepGrids = [2][]int{
	{32, 64, 128, 256},
	{32, 48, 64, 96, 128, 192, 256},
}

// whatifBranches are the what-if branch policies swapped in at the
// branch point; nil is the control branch, which keeps the prefix's
// MinEDF.
var whatifBranches = []struct {
	name   string
	policy func() simmr.Policy
}{
	{"control", nil},
	{"maxedf", simmr.NewMaxEDF},
	{"fifo", simmr.NewFIFO},
	{"fair", simmr.NewFair},
}

// bench is one workload after setup: its input is built and the
// reference digest of op's outputs is known.
type bench interface {
	// op runs one closed-loop operation and returns the simulated jobs
	// in its results and the digest of its outputs. t is nil on
	// untraced runs; traced runs time each layer into it.
	op(t *opTrace) (jobs int, digest string, err error)
	// want is the reference digest computed at setup through the plain
	// path: simmr.Replay (or a stepped engine for branches) with the
	// reference policy, and no pool, cache or fork.
	want() string
	close() error
}

type workload struct {
	name  string
	setup func(sz size, seed int64, dir string) (bench, error)
}

var workloads = []workload{
	{"bigtrace", setupBigtrace},
	{"sweep", setupSweep},
	{"whatif", setupWhatif},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolSeed draws the template pool, the same for every --seed; the
// seed draws the stream over it (which template each job uses, the
// arrival gaps and the deadlines). The pool sets the mean work per
// job, and 256 templates are too few for that mean to hold still: with
// a pool per seed, the sweep trace's offered load ranged over 40-44
// busy map slots across ten seeds, and with it the backlog, and so the
// cost, of the overloaded 32-slot cell.
const poolSeed = 1

// genTrace draws the workloads' input: a multi-tenant stream over a
// 256-template pool with deadlines on 70% of jobs.
func genTrace(name string, jobs int, meanInterArrival float64, seed int64) (*simmr.Trace, error) {
	src := &poolThenStream{pool: rand.NewSource(poolSeed).(rand.Source64), stream: rand.NewSource(seed).(rand.Source64)}
	s, err := simmr.NewTraceStream(simmr.StreamConfig{
		Name:             name,
		Jobs:             jobs,
		MeanInterArrival: meanInterArrival,
		TemplatePool:     256,
		DeadlineFraction: 0.7,
		DeadlineSlack:    900,
		Shapes:           []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}},
	}, rand.New(src))
	if err != nil {
		return nil, err
	}
	// NewTraceStream has drawn the pool; the jobs come from the seed.
	src.streaming = true
	return s.Collect()
}

// poolThenStream is a random source that reads from pool until
// streaming is set, and from stream after.
type poolThenStream struct {
	pool, stream rand.Source64
	streaming    bool
}

func (p *poolThenStream) cur() rand.Source64 {
	if p.streaming {
		return p.stream
	}
	return p.pool
}

func (p *poolThenStream) Int63() int64    { return p.cur().Int63() }
func (p *poolThenStream) Uint64() uint64  { return p.cur().Uint64() }
func (p *poolThenStream) Seed(seed int64) { p.cur().Seed(seed) }

// bigtrace replays a long packed trace end to end, the CLI's
// `trace run` path: open, validate, pooled MinEDF replay, digest, close.
type bigtrace struct {
	path string
	pool simmr.ReplayPool
	last *simmr.Engine // the previous op's engine, for the next Get
	ref  string
}

func setupBigtrace(sz size, seed int64, dir string) (bench, error) {
	tr, err := genTrace("bigtrace", sz.bigJobs, 60, seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("bigtrace-%s-%d.strc", sz.name, seed))
	if err := simmr.WritePackedTrace(path, tr); err != nil {
		return nil, err
	}
	res, err := simmr.Replay(simmr.DefaultReplayConfig(), tr, simmr.NewMinEDF())
	if err != nil {
		return nil, err
	}
	d := newDigester()
	d.result(res)
	return &bigtrace{path: path, ref: d.sum()}, nil
}

func (b *bigtrace) want() string { return b.ref }
func (b *bigtrace) close() error { return os.Remove(b.path) }

func (b *bigtrace) op(t *opTrace) (int, string, error) {
	var (
		tr  *simmr.Trace
		e   *simmr.Engine
		res *simmr.ReplayResult
		err error
	)
	t.time("tracebin.open_s", func() { tr, err = simmr.OpenPackedTrace(b.path) })
	if err != nil {
		return 0, "", err
	}
	defer tr.Close()
	if t.time("trace.validate_s", func() { err = tr.Validate() }); err != nil {
		return 0, "", err
	}
	cfg := simmr.DefaultReplayConfig()
	if t != nil {
		cfg.Sink = t.runSink()
	}
	// The previous op's engine goes back into the pool just before Get,
	// not when that op ended, so Get always resets it. The pool wraps
	// sync.Pool: the collections forced between ops would empty it, and
	// an engine Put on one P is not seen by a Get on another.
	b.pool.Put(b.last)
	t.time("engine.reset_s", func() { e, err = b.pool.Get(cfg, tr, t.policy(simmr.NewMinEDF())) })
	b.last = e
	if err != nil {
		return 0, "", err
	}
	t.time("engine.run_s", func() { res, err = e.Run() })
	if err != nil {
		return 0, "", err
	}
	t.foldRuns("")
	d := newDigester()
	d.result(res)
	return len(res.Jobs), d.sum(), nil
}

// sweep is the planner's refine-the-grid study: a square capacity
// sweep, then a wider one that revisits every first-pass cell, both
// memoized through one fresh in-memory result cache.
type sweep struct {
	tr   *simmr.Trace
	ref  string
	last simmr.CacheStats // of the latest operation's cache
}

func setupSweep(sz size, seed int64, _ string) (bench, error) {
	tr, err := genTrace("sweep", sz.sweepJobs, 10, seed)
	if err != nil {
		return nil, err
	}
	// Reference: one plain scan-policy replay per distinct cell, one
	// after another, so set-up time does not depend on how the host
	// shares its CPUs between two threads.
	ref := map[int]*simmr.ReplayResult{}
	for _, slots := range sweepGrids[1] {
		cfg := simmr.DefaultReplayConfig()
		cfg.MapSlots, cfg.ReduceSlots = slots, slots
		if ref[slots], err = simmr.Replay(cfg, tr, simmr.NewMinEDF()); err != nil {
			return nil, err
		}
	}
	d := newDigester()
	for _, grid := range sweepGrids {
		pts := make([]simmr.SweepPoint, len(grid))
		for i, slots := range grid {
			pts[i] = sweepPointOf(i, slots, ref[slots])
		}
		d.points(pts)
	}
	return &sweep{tr: tr, ref: d.sum()}, nil
}

func (s *sweep) want() string { return s.ref }
func (s *sweep) close() error { return nil }

var sweepPassLayers = [2]string{"simmr.sweep_cold_s", "simmr.sweep_warm_s"}

func (s *sweep) op(t *opTrace) (int, string, error) {
	cache := simmr.NewCache(simmr.CacheOptions{})
	d := newDigester()
	jobs := 0
	for pass, grid := range sweepGrids {
		cfg := simmr.SweepConfig{
			MapSlotCounts: grid,
			PolicyFactory: func() simmr.Policy { return t.policy(simmr.Indexed(simmr.NewMinEDF())) },
			Workers:       workers,
			Cache:         cache,
		}
		if t != nil {
			cfg.SinkFactory = func(int, int) simmr.Sink { return t.runSink() }
		}
		var pts []simmr.SweepPoint
		var err error
		if t.time(sweepPassLayers[pass], func() { pts, err = simmr.CapacitySweep(s.tr, cfg) }); err != nil {
			return 0, "", err
		}
		t.foldRuns(sweepPassLayers[pass])
		d.points(pts)
		jobs += len(pts) * len(s.tr.Jobs)
	}
	s.last = cache.Stats()
	if t != nil {
		st := s.last
		t.count["rcache.lookups"] = float64(st.Hits + st.Misses)
		t.count["rcache.hits"] = float64(st.Hits)
		t.count["rcache.evictions"] = float64(st.Evictions)
		t.count["rcache.mem_entries"] = float64(st.MemEntries)
	}
	return jobs, d.sum(), nil
}

// whatif is `trace whatif -explain`: a shared MinEDF prefix to half the
// reference event count, then one forked branch per policy, each
// continuing a Fork of the prefix's attribution sink.
type whatif struct {
	tr     *simmr.Trace
	cfg    simmr.ReplayConfig
	branch uint64
	ref    string
}

func setupWhatif(sz size, seed int64, _ string) (bench, error) {
	tr, err := genTrace("whatif", sz.whatifJobs, 10, seed)
	if err != nil {
		return nil, err
	}
	cfg := simmr.DefaultReplayConfig()
	full, err := simmr.Replay(cfg, tr, simmr.NewMinEDF())
	if err != nil {
		return nil, err
	}
	w := &whatif{tr: tr, cfg: cfg, branch: full.Events / 2}
	// Reference: each branch replayed from scratch, one after another,
	// on one stepped engine — paused at the branch point, policy
	// swapped, run to the end — with its own attribution sink watching
	// the whole run.
	d := newDigester()
	for _, b := range whatifBranches {
		a := w.attrSink()
		c := cfg
		c.Sink = a
		e, err := simmr.NewEngine(c, tr, simmr.NewMinEDF())
		if err != nil {
			return nil, err
		}
		if _, err := e.RunEvents(w.branch); err != nil {
			return nil, err
		}
		if b.policy != nil {
			if err := e.SetPolicy(b.policy()); err != nil {
				return nil, err
			}
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		d.result(res)
		if err := d.report(a.Report()); err != nil {
			return nil, err
		}
	}
	w.ref = d.sum()
	return w, nil
}

func (w *whatif) want() string { return w.ref }
func (w *whatif) close() error { return nil }

func (w *whatif) attrSink() *simmr.AttrSink {
	return simmr.NewAttrSink(simmr.AttrOptions{MapSlots: w.cfg.MapSlots, ReduceSlots: w.cfg.ReduceSlots, Trace: w.tr})
}

func (w *whatif) op(t *opTrace) (int, string, error) {
	prefix := w.attrSink()
	cfg := w.cfg
	cfg.Sink = t.sink(prefix)
	attrs := make([]*simmr.AttrSink, len(whatifBranches))
	branches := make([]simmr.WhatIf, len(whatifBranches))
	for i, b := range whatifBranches {
		branches[i] = simmr.WhatIf{
			Name: b.name,
			SinkFactory: func() simmr.Sink {
				t.fanoutStarts()
				attrs[i] = prefix.Fork()
				return t.sink(attrs[i])
			},
		}
		if b.policy != nil {
			branches[i].Policy = t.policy(b.policy())
		}
	}
	bcfg := simmr.BranchSetConfig{
		Config:        cfg,
		Trace:         w.tr,
		PolicyFactory: func() simmr.Policy { return t.policy(simmr.NewMinEDF()) },
		BranchEvents:  w.branch,
		Workers:       workers,
	}
	if t != nil {
		bcfg.Telemetry = simmr.NewTelemetry()
	}
	start := time.Now()
	results, err := simmr.BranchSet(context.Background(), bcfg, branches)
	end := time.Now()
	if err != nil {
		return 0, "", err
	}
	d := newDigester()
	jobs := 0
	for i, res := range results {
		d.result(res)
		jobs += len(res.Jobs)
		var rep *simmr.AttrReport
		t.time("attr.report_s", func() { rep = attrs[i].Report() })
		if err := d.report(rep); err != nil {
			return 0, "", err
		}
	}
	if t != nil {
		if err := t.foldBranchSet(start, end, bcfg.Telemetry); err != nil {
			return 0, "", err
		}
	}
	return jobs, d.sum(), nil
}
