package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/pkg/simmr"
)

// calls accumulates the count and host time of calls into one
// decorated policy or sink. Atomics, because BranchSet may hand a
// fork the prefix's policy instance on another goroutine.
type calls struct {
	n    atomic.Uint64
	busy atomic.Int64 // nanoseconds
}

// since charges the time since t0 to the layer; count says whether the
// call also counts toward n.
func (c *calls) since(t0 time.Time, count bool) {
	c.busy.Add(int64(time.Since(t0)))
	if count {
		c.n.Add(1)
	}
}

// timePolicy wraps p so every scheduling call is counted and timed in
// c. The wrapper implements exactly the optional interfaces p does
// (BatchPolicy, ArrivalAware, Fingerprinter): the engine picks its
// fast path and the result cache its key by type assertion, so a
// wrapper that added or hid one would change the program it measures.
func timePolicy(p sched.Policy, c *calls) sched.Policy {
	pc := policyCalls{p, c}
	b, isB := p.(sched.BatchPolicy)
	a, isA := p.(sched.ArrivalAware)
	f, isF := p.(sched.Fingerprinter)
	bc, ac, fc := batchCalls{b, c}, arrivalCalls{a, c}, fingerprint{f}
	switch {
	case isB && isA && isF:
		return struct {
			policyCalls
			batchCalls
			arrivalCalls
			fingerprint
		}{pc, bc, ac, fc}
	case isB && isA:
		return struct {
			policyCalls
			batchCalls
			arrivalCalls
		}{pc, bc, ac}
	case isB && isF:
		return struct {
			policyCalls
			batchCalls
			fingerprint
		}{pc, bc, fc}
	case isB:
		return struct {
			policyCalls
			batchCalls
		}{pc, bc}
	case isA && isF:
		return struct {
			policyCalls
			arrivalCalls
			fingerprint
		}{pc, ac, fc}
	case isA:
		return struct {
			policyCalls
			arrivalCalls
		}{pc, ac}
	case isF:
		return struct {
			policyCalls
			fingerprint
		}{pc, fc}
	}
	return pc
}

type policyCalls struct {
	p sched.Policy
	c *calls
}

func (w policyCalls) Name() string { return w.p.Name() }

func (w policyCalls) ChooseNextMapTask(q []*sched.JobInfo) int {
	t0 := time.Now()
	defer w.c.since(t0, true)
	return w.p.ChooseNextMapTask(q)
}

func (w policyCalls) ChooseNextReduceTask(q []*sched.JobInfo) int {
	t0 := time.Now()
	defer w.c.since(t0, true)
	return w.p.ChooseNextReduceTask(q)
}

type batchCalls struct {
	b sched.BatchPolicy
	c *calls
}

func (w batchCalls) OnJobAdmit(j *sched.JobInfo, totalMap, totalReduce int) {
	t0 := time.Now()
	w.b.OnJobAdmit(j, totalMap, totalReduce)
	w.c.since(t0, true)
}

func (w batchCalls) OnJobDepart(j *sched.JobInfo) {
	t0 := time.Now()
	w.b.OnJobDepart(j)
	w.c.since(t0, true)
}

func (w batchCalls) OnJobUpdate(j *sched.JobInfo) {
	t0 := time.Now()
	w.b.OnJobUpdate(j)
	w.c.since(t0, true)
}

func (w batchCalls) ResetQueue() {
	t0 := time.Now()
	w.b.ResetQueue()
	w.c.since(t0, true)
}

func (w batchCalls) AssignMapSlots(q []*sched.JobInfo, n int) []int {
	t0 := time.Now()
	defer w.c.since(t0, true)
	return w.b.AssignMapSlots(q, n)
}

func (w batchCalls) AssignReduceSlots(q []*sched.JobInfo, n int) []int {
	t0 := time.Now()
	defer w.c.since(t0, true)
	return w.b.AssignReduceSlots(q, n)
}

type arrivalCalls struct {
	a sched.ArrivalAware
	c *calls
}

func (w arrivalCalls) OnJobArrival(j *sched.JobInfo, totalMap, totalReduce int) {
	t0 := time.Now()
	w.a.OnJobArrival(j, totalMap, totalReduce)
	w.c.since(t0, true)
}

// fingerprint forwards the cache identity untimed: it is a key lookup,
// not a scheduling decision.
type fingerprint struct{ f sched.Fingerprinter }

func (w fingerprint) Fingerprint() (uint64, bool) { return w.f.Fingerprint() }

// timeSink wraps s so every call is timed in c; c.n counts Event calls
// only. The wrapper implements DepthSampler and ProgressSampler exactly
// when s does, because the engine enables sampling by type assertion.
func timeSink(s obs.Sink, c *calls) obs.Sink {
	sc := sinkCalls{s, c}
	d, isD := s.(obs.DepthSampler)
	p, isP := s.(obs.ProgressSampler)
	dc, pc := depthCalls{d, c}, progressCalls{p, c}
	switch {
	case isD && isP:
		return struct {
			sinkCalls
			depthCalls
			progressCalls
		}{sc, dc, pc}
	case isD:
		return struct {
			sinkCalls
			depthCalls
		}{sc, dc}
	case isP:
		return struct {
			sinkCalls
			progressCalls
		}{sc, pc}
	}
	return sc
}

type sinkCalls struct {
	s obs.Sink
	c *calls
}

func (w sinkCalls) Event(ev obs.Event) {
	t0 := time.Now()
	w.s.Event(ev)
	w.c.since(t0, true)
}

func (w sinkCalls) RunEnd(k obs.Counters) {
	t0 := time.Now()
	w.s.RunEnd(k)
	w.c.since(t0, false)
}

type depthCalls struct {
	d obs.DepthSampler
	c *calls
}

func (w depthCalls) SampleDepth(now float64, depth int) {
	t0 := time.Now()
	w.d.SampleDepth(now, depth)
	w.c.since(t0, false)
}

type progressCalls struct {
	p obs.ProgressSampler
	c *calls
}

func (w progressCalls) SampleProgress(now float64, events uint64, done, total int) {
	t0 := time.Now()
	w.p.SampleProgress(now, events, done, total)
	w.c.since(t0, false)
}

// runSink is a counting sink for one engine run. It stamps the host
// time of its creation, of the first event and of RunEnd, and keeps the
// run counters (events, event-queue high water). Event does one branch,
// so its own cost is part of the tracing overhead, not a layer.
type runSink struct {
	made, first, end time.Time
	counters         obs.Counters
}

func newRunSink() *runSink { return &runSink{made: time.Now()} }

func (s *runSink) Event(obs.Event) {
	if s.first.IsZero() {
		s.first = time.Now()
	}
}

func (s *runSink) RunEnd(k obs.Counters) {
	s.end = time.Now()
	s.counters = k
}

// opTrace collects one traced operation's layer timings and counters.
// Its methods are nil-safe: on an untraced run t is nil, calls run
// bare and no decorator is attached.
type opTrace struct {
	dur   map[string]time.Duration // host time per layer, by metric name
	count map[string]float64       // counters, by metric name
	spans []span

	mu       sync.Mutex // guards the lists below and fanout
	policies []*calls
	sinks    []*calls
	runs     []*runSink
	fanout   time.Time // first branch sink built: the prefix is sealed
}

func newOpTrace() *opTrace {
	return &opTrace{dur: map[string]time.Duration{}, count: map[string]float64{}}
}

// span is one timed call into a layer, kept in memory and written out
// when the run ends.
type span struct {
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Parent string  `json:"parent"` // the span that caused it; "op" for top level
	Start  float64 `json:"start_unix_s"`
	Dur    float64 `json:"dur_s"`
}

// time runs f, charging its host time to layer as a top-level span.
func (t *opTrace) time(layer string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.child("op", layer, t0, time.Now())
}

// policy wraps p in a timing decorator with its own counters (policies
// run on different worker goroutines; separate counters keep them off
// one cache line).
func (t *opTrace) policy(p simmr.Policy) simmr.Policy {
	if t == nil {
		return p
	}
	c := &calls{}
	t.mu.Lock()
	t.policies = append(t.policies, c)
	t.mu.Unlock()
	return timePolicy(p, c)
}

// sink wraps an attribution sink in a timing decorator.
func (t *opTrace) sink(s simmr.Sink) simmr.Sink {
	if t == nil {
		return s
	}
	c := &calls{}
	t.mu.Lock()
	t.sinks = append(t.sinks, c)
	t.mu.Unlock()
	return timeSink(s, c)
}

// runSink returns a fresh counting sink for one engine run.
func (t *opTrace) runSink() *runSink {
	s := newRunSink()
	t.mu.Lock()
	t.runs = append(t.runs, s)
	t.mu.Unlock()
	return s
}

// fanoutStarts marks the first branch's start: BranchSet builds branch
// sinks only once the shared prefix has been run and sealed.
func (t *opTrace) fanoutStarts() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.fanout.IsZero() {
		t.fanout = time.Now()
	}
	t.mu.Unlock()
}

// foldRuns adds the counting sinks' runs so far to the engine layers.
// Inside CapacitySweep the pool is out of reach, so for runs made there
// (parent names the sweep pass) reset is charged from sink creation to
// the first event — Pool.Get's Reset plus the arrival pre-push — and
// run from the first event to RunEnd, each recorded as a span of the
// pass; summed over cells, both are worker-seconds.
func (t *opTrace) foldRuns(parent string) {
	if t == nil {
		return
	}
	for _, s := range t.runs {
		if s.first.IsZero() || s.end.IsZero() {
			continue
		}
		if parent != "" {
			t.child(parent, "engine.reset_s", s.made, s.first)
			t.child(parent, "engine.run_s", s.first, s.end)
		}
		t.count["engine.events"] += float64(s.counters.Events)
		t.count["des.queue_peak"] = max(t.count["des.queue_peak"], float64(s.counters.HeapHighWater))
	}
	t.runs = nil
}

// child charges [from, to) to layer as a span caused by parent.
func (t *opTrace) child(parent, layer string, from, to time.Time) {
	d := to.Sub(from)
	t.dur[layer] += d
	t.spans = append(t.spans, span{Layer: layer, Parent: parent, Start: float64(from.UnixNano()) / 1e9, Dur: d.Seconds()})
}

// forkCounters maps the fan-out telemetry's fork byte counters to
// their metrics.
var forkCounters = map[string]string{
	"simmr_engine_fork_bytes_copied": "engine.fork_bytes_copied",
	"simmr_engine_fork_bytes_shared": "engine.fork_bytes_shared",
}

// foldBranchSet records the BranchSet call [start, end) as a span split
// at the first branch sink into prefix and fan-out, and reads the fork
// byte counters from the fan-out's telemetry registry.
func (t *opTrace) foldBranchSet(start, end time.Time, tel *simmr.Telemetry) error {
	t.child("op", "simmr.branch_set_s", start, end)
	if !t.fanout.IsZero() {
		t.child("simmr.branch_set_s", "simmr.branch_prefix_s", start, t.fanout)
		t.child("simmr.branch_set_s", "simmr.branch_fanout_s", t.fanout, end)
	}
	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		return err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		metric, ok := forkCounters[name]
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("telemetry line %q: %w", line, err)
		}
		t.count[metric] = v
	}
	return nil
}

// perLayer are the traced run's metrics, in report order, with units.
var perLayer = []struct{ name, unit string }{
	{"tracebin.open_s", "s"},
	{"trace.validate_s", "s"},
	{"engine.reset_s", "s"},
	{"engine.run_s", "s"},
	{"engine.self_s", "s"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"des.queue_peak", "count"},
	{"sched.calls", "count"},
	{"sched.busy_s", "s"},
	{"sched.ns_per_call", "ns"},
	{"rcache.lookups", "count"},
	{"rcache.hits", "count"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.evictions", "count"},
	{"rcache.mem_entries", "count"},
	{"simmr.sweep_cold_s", "s"},
	{"simmr.sweep_warm_s", "s"},
	{"simmr.branch_prefix_s", "s"},
	{"simmr.branch_fanout_s", "s"},
	{"engine.fork_bytes_copied", "B"},
	{"engine.fork_bytes_shared", "B"},
	{"obs.events", "count"},
	{"attr.busy_s", "s"},
	{"attr.ns_per_event", "ns"},
	{"attr.report_s", "s"},
	{"go.alloc_bytes", "B"},
	{"go.gc_cycles", "count"},
	{"wall.op_s_p50", "s"},
	{"wall.jobs_per_s", "1/s"},
	{"tracing.op_cpu_s_p50", "s"},
	{"tracing.overhead_pct", "%"},
	{"host.ref_cpu_s", "s"},
}

// values returns the operation's per-layer metrics: those of perLayer
// that one operation determines (wall.*, tracing.* and host.* are
// run-level).
// A layer the workload does not exercise reads 0.
func (t *opTrace) values() map[string]float64 {
	v := map[string]float64{}
	for k, d := range t.dur {
		v[k] = d.Seconds()
	}
	for k, n := range t.count {
		v[k] = n
	}
	v["sched.calls"], v["sched.busy_s"] = total(t.policies)
	v["sched.ns_per_call"] = ratio(v["sched.busy_s"]*1e9, v["sched.calls"])
	v["obs.events"], v["attr.busy_s"] = total(t.sinks)
	v["attr.ns_per_event"] = ratio(v["attr.busy_s"]*1e9, v["obs.events"])
	v["rcache.hit_ratio"] = ratio(v["rcache.hits"], v["rcache.lookups"])
	if v["engine.run_s"] > 0 {
		// Policy time is spent inside Engine.Run; the counting sink is
		// untimed (one branch per event), so self is the engine's own
		// loop plus that sink's call cost.
		v["engine.self_s"] = v["engine.run_s"] - v["sched.busy_s"]
		v["engine.ns_per_event"] = ratio(v["engine.run_s"]*1e9, v["engine.events"])
	}
	return v
}

// total sums decorators' call counts and busy seconds.
func total(cs []*calls) (n, seconds float64) {
	for _, c := range cs {
		n += float64(c.n.Load())
		seconds += float64(c.busy.Load()) / 1e9
	}
	return n, seconds
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
