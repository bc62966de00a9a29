// Copy-on-write engine forking (DESIGN.md §12): pause a replay at any
// macro-step boundary, seal it into an immutable Snapshot, and fork as
// many cheap branch engines off it as there are what-if questions.
// Each fork owns a full clone of the pending event heap (small — the
// in-flight events, not the trace; the arrival lane is shared, only its
// cursor is copied) and borrows the sealed jobs slab read-only,
// copying 16-job chunks lazily on first write. Forks
// are independent engines: they run, pause, mutate (SetDeadline,
// InjectJob, SetPolicy), and produce Results byte-identical to a
// from-scratch replay that took the same decisions at the same events
// — the fork differential suite pins this across the whole policy
// family.
package engine

import (
	"fmt"
	"math"
	"unsafe"

	"simmr/internal/des"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// cowChunkJobs is the copy-on-write granularity of the jobs slab: jobs
// are copied from the snapshot in chunks of this many on first write.
// Chunks keep the dirty bookkeeping one bitset word per kilo-job while
// amortizing the deep fix-up (slice/map clones) over neighbors that
// are likely touched together (arrival order correlates with slab
// order).
const cowChunkJobs = 16

// jobBytes and eventBytes size the fork-telemetry byte accounting.
const (
	jobBytes   = uint64(unsafe.Sizeof(simJob{}))
	eventBytes = uint64(unsafe.Sizeof(des.Event{})) + 8 // + heap slot pointer
)

// ForkStats reports how much engine state a fork physically duplicated
// versus still serves read-only from its snapshot. BytesCopied counts
// the cloned heap events (not the shared arrival lane) plus every
// jobs-slab chunk copied — eagerly for active jobs at fork time,
// lazily on first write after; BytesShared counts the jobs-slab bytes
// still borrowed. Bytes migrate from shared to copied as the branch
// diverges, so read the stats after the branch's Run for the
// end-of-life split.
type ForkStats struct {
	BytesCopied uint64
	BytesShared uint64
}

// ForkStats returns the copy-on-write accounting of a forked engine;
// zero on ordinary engines.
func (e *Engine) ForkStats() ForkStats { return e.stats }

// Snapshot is a sealed engine state at a macro-step boundary — the
// shared source that forks branch from. The underlying engine is
// frozen: it rejects Run/RunEvents and the mutation APIs until Reset
// un-seals it (all outstanding forks must have finished by then; forks
// read the snapshot's slabs concurrently and lock-free). Snapshots are
// safe for concurrent ForkInto calls from multiple goroutines. Forks
// share the snapshot's arrival lane, which reads arrival times and IDs
// from the trace's jobs, so the trace must not be edited while a
// snapshot or any of its forks is live.
type Snapshot struct {
	e *Engine
}

// Events returns the number of events fired up to the snapshot point.
func (s *Snapshot) Events() uint64 { return s.e.q.Fired() }

// Time returns the simulated time at the snapshot point.
func (s *Snapshot) Time() float64 { return s.e.clock.Now() }

// Done reports whether the replay had already completed when sealed
// (forks then produce the finished Result immediately — unless revived
// by InjectJob).
func (s *Snapshot) Done() bool { return s.e.remaining == 0 }

// Snapshot seals the engine at its current macro-step boundary and
// returns the immutable fork source. An idle engine is started first
// (arrivals laned, nothing fired), so a t=0 snapshot is well-defined;
// a completed engine seals its final state. Sealing a fork first
// materializes every still-borrowed chunk so the new snapshot is
// self-contained and its own source is released. Snapshot is
// idempotent: sealing twice returns the same *Snapshot.
func (e *Engine) Snapshot() (*Snapshot, error) {
	switch e.state {
	case runSealed:
		return e.snap, nil
	case runIdle:
		if err := e.start(); err != nil {
			return nil, err
		}
	}
	if e.src != nil {
		e.materialize()
	}
	e.state = runSealed
	e.snap = &Snapshot{e: e}
	return e.snap, nil
}

// materialize copies every still-clean chunk from the fork source and
// drops the source link, making the engine self-contained.
func (e *Engine) materialize() {
	for c := 0; c*cowChunkJobs < len(e.jobs); c++ {
		e.ensureChunk(c)
	}
	e.src = nil
}

// chunkDirty reports whether jobs-slab chunk c has been copied.
func (e *Engine) chunkDirty(c int) bool {
	return e.dirty[c>>6]&(1<<(uint(c)&63)) != 0
}

// ensureChunk copies chunk c of the jobs slab from the fork source on
// first touch and deep-fixes the aliased per-job state. Callers hold
// e.src != nil.
func (e *Engine) ensureChunk(c int) {
	w, bit := c>>6, uint64(1)<<(uint(c)&63)
	if e.dirty[w]&bit != 0 {
		return
	}
	e.dirty[w] |= bit
	lo := c * cowChunkJobs
	hi := lo + cowChunkJobs
	if hi > len(e.jobs) {
		hi = len(e.jobs)
	}
	copy(e.jobs[lo:hi], e.src.e.jobs[lo:hi])
	for i := lo; i < hi; i++ {
		e.fixupJob(&e.jobs[i])
	}
	nb := uint64(hi-lo) * jobBytes
	e.stats.BytesCopied += nb
	e.stats.BytesShared -= nb
}

// remapEvent translates a retained event handle of the snapshot's
// queue to this engine's clone via the CloneInto position contract.
// Every handle a job retains at a macro-step boundary (running-map
// departures, filler reduces) points at a still-scheduled event —
// same-instant departures are drained within the step — so an
// unscheduled handle here means the boundary invariant broke.
func (e *Engine) remapEvent(ev *des.Event) *des.Event {
	pos := ev.HeapPos()
	if pos < 0 {
		panic("engine: fork invariant violated: retained handle to an unscheduled event")
	}
	return e.q.PendingAt(pos)
}

// fixupJob rewrites the state a chunk-copied (or extra-copied) job
// aliases with the snapshot: retry and filler slices get owned copies,
// running-task and filler event handles remap into this engine's
// queue, and span slices are cloned unless the job already departed
// (departed outcomes are immutable, so sharing their spans across
// Results is safe and free).
func (e *Engine) fixupJob(sj *simJob) {
	if n := len(sj.retryMaps); n > 0 {
		sj.retryMaps = append(make([]int, 0, n), sj.retryMaps...)
	} else {
		sj.retryMaps = nil
	}
	if sj.runningMaps != nil {
		m := make(map[int]*des.Event, len(sj.runningMaps))
		for task, ev := range sj.runningMaps {
			m[task] = e.remapEvent(ev)
		}
		sj.runningMaps = m
	}
	if n := len(sj.fillers); n > 0 {
		fs := append(make([]fillerReduce, 0, n), sj.fillers...)
		for i := range fs {
			fs[i].ev = e.remapEvent(fs[i].ev)
		}
		sj.fillers = fs
	} else {
		sj.fillers = nil
	}
	if !sj.departed {
		// make-then-append keeps a non-nil empty slice non-nil, so a
		// forked outcome compares (and encodes) exactly like a scratch
		// replay's.
		if sj.out.MapSpans != nil {
			sj.out.MapSpans = append(make([]Span, 0, len(sj.out.MapSpans)), sj.out.MapSpans...)
		}
		if sj.out.ReduceSpans != nil {
			sj.out.ReduceSpans = append(make([]Span, 0, len(sj.out.ReduceSpans)), sj.out.ReduceSpans...)
		}
	}
}

// ForkOptions parameterizes one fork off a snapshot.
type ForkOptions struct {
	// Policy is the fork's scheduling policy instance. Nil shares the
	// snapshot's policy — valid for the stateless built-in values (FIFO,
	// MaxEDF, MinEDF, Fair, Capacity) but rejected when the snapshot
	// runs an indexed (BatchPolicy) instance, whose per-engine index
	// cannot be shared across forks: pass a fresh instance of the same
	// policy then. To *change* policy at the branch point, fork with the
	// old policy and call SetPolicy on the fork — that re-admits jobs
	// under the new policy exactly like a from-scratch replay switching
	// at the same event would.
	Policy sched.Policy
	// Sink receives the fork's own event stream (suffix only — the
	// shared prefix was observed by the snapshot engine's sink) and the
	// RunEnd counters, which cover the whole logical replay. One sink
	// per fork (obs.Sink contract).
	Sink obs.Sink
}

// ForkInto arms dst as a branch of the snapshot, recycling dst's
// warmed storage exactly like Reset does — the pooled-fork path. dst
// resumes from the snapshot's macro-step boundary: same clock, same
// pending events (cloned), same per-job progress (borrowed
// copy-on-write), same policy decisions ahead of it. Index state
// (batch-policy tournaments, the preemption index) is rebuilt from the
// forked queue in O(active · log) rather than cloned — rebuild benches
// faster than an O(index-size) deep clone at replay scale and needs no
// per-policy clone hooks; the fork differential suite pins its
// equivalence.
func (s *Snapshot) ForkInto(dst *Engine, opts ForkOptions) error {
	src := s.e
	if dst == src {
		return fmt.Errorf("engine: cannot fork a snapshot into its own source engine")
	}
	if dst.state == runSealed {
		return fmt.Errorf("engine: fork destination is sealed by Snapshot; Reset it first")
	}
	policy := opts.Policy
	if policy == nil {
		if _, ok := src.policy.(sched.BatchPolicy); ok {
			return fmt.Errorf("engine: forking an engine on an indexed (batch) policy requires ForkOptions.Policy: one fresh instance per fork")
		}
		policy = src.policy
	}

	// Scalar replay state, counters included, so the fork's RunEnd
	// totals match a from-scratch replay's.
	dst.cfg = src.cfg
	dst.cfg.Sink = opts.Sink
	dst.sink = opts.Sink
	dst.depth, _ = opts.Sink.(obs.DepthSampler)
	dst.prog, _ = opts.Sink.(obs.ProgressSampler)
	dst.depthTick = 0
	dst.policy = policy
	dst.arrivals = src.arrivals
	dst.clock = src.clock
	dst.freeMap = src.freeMap
	dst.freeReduce = src.freeReduce
	dst.remaining = src.remaining
	dst.arrivalSeq = src.arrivalSeq
	dst.preemptions = src.preemptions
	dst.fillerPatches = src.fillerPatches
	dst.mapSlotAllocs = src.mapSlotAllocs
	dst.reduceSlotAllocs = src.reduceSlotAllocs
	dst.state = runStarted
	dst.snap = nil

	// Pending events: a full clone of the heap with positions preserved —
	// the remapEvent contract — into dst's recycled slab; the arrival
	// lane is shared and only its cursor copied.
	src.q.CloneInto(&dst.q)

	// Jobs slab: sized but not copied; chunks borrow from the snapshot
	// through the dirty bitset until first write.
	n := len(src.jobs)
	if cap(dst.jobs) >= n {
		for i := n; i < len(dst.jobs); i++ {
			dst.jobs[i] = simJob{}
		}
		dst.jobs = dst.jobs[:n]
	} else {
		dst.jobs = make([]simJob, n)
	}
	words := ((n+cowChunkJobs-1)/cowChunkJobs + 63) / 64
	if cap(dst.dirty) >= words {
		dst.dirty = dst.dirty[:words]
		clear(dst.dirty)
	} else {
		dst.dirty = make([]uint64, words)
	}
	dst.src = s
	dst.indexOf = src.indexOf // borrowed read-only; InjectJob copies on write
	dst.sharedIndex = src.indexOf != nil
	dst.stats = ForkStats{
		BytesCopied: uint64(dst.q.Len()-dst.q.LaneLen()) * eventBytes,
		BytesShared: uint64(n) * jobBytes,
	}

	// Jobs injected into the snapshot itself are deep-copied eagerly:
	// they are few and individually boxed.
	for i := range dst.extra {
		dst.extra[i] = nil
	}
	dst.extra = dst.extra[:0]
	for _, sj := range src.extra {
		c := new(simJob)
		*c = *sj
		dst.fixupJob(c)
		dst.extra = append(dst.extra, c)
	}

	// Active set: same order as the snapshot's, pointers into dst's own
	// slabs. Resolving through jobByID eagerly copies every chunk
	// holding an active job — those are exactly the jobs the policy
	// index and the next handlers touch anyway.
	if cap(dst.active) >= len(src.active) {
		dst.active = dst.active[:0]
	} else {
		dst.active = make([]*sched.JobInfo, 0, n+len(src.extra))
	}
	for _, info := range src.active {
		dst.active = append(dst.active, &dst.jobByID(info.ID).info)
	}

	// Policy index state: rebuild by re-admitting the active jobs in
	// queue order. Re-admission is idempotent — OnJobAdmit sizing
	// (IndexedMinEDF) is a deterministic function of the copied JobInfo,
	// and tournament winners are insertion-order independent — so the
	// rebuilt index answers exactly as the snapshot's did.
	dst.batch, _ = policy.(sched.BatchPolicy)
	dst.arrive, _ = policy.(sched.ArrivalAware)
	if dst.batch != nil {
		dst.batch.ResetQueue()
		for _, info := range dst.active {
			dst.batch.OnJobAdmit(info, dst.cfg.MapSlots, dst.cfg.ReduceSlots)
		}
	}
	switch {
	case !dst.cfg.PreemptMapTasks:
		dst.preemptIdx = nil
	case dst.preemptIdx == nil:
		dst.preemptIdx = dst.newPreemptIdx()
	default:
		dst.preemptIdx.Reset()
	}
	if dst.preemptIdx != nil {
		for _, info := range dst.active {
			dst.preemptIdx.Add(info)
		}
	}
	return nil
}

// Fork builds a fresh branch engine off the snapshot. See ForkInto.
func (s *Snapshot) Fork(opts ForkOptions) (*Engine, error) {
	dst := &Engine{}
	if err := s.ForkInto(dst, opts); err != nil {
		return nil, err
	}
	return dst, nil
}

// Fork seals the engine (Snapshot) and branches once off it — the
// one-shot convenience; fan-outs take the Snapshot and fork it K
// times, ideally through Pool.Fork.
func (e *Engine) Fork(opts ForkOptions) (*Engine, error) {
	s, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Fork(opts)
}

// Fork arms a pooled engine as a branch of the snapshot: Get the
// warmed engine, ForkInto it. Put it back after the branch's Run as
// usual. Safe for concurrent use like the rest of Pool.
func (p *Pool) Fork(s *Snapshot, opts ForkOptions) (*Engine, error) {
	if v := p.p.Get(); v != nil {
		if p.OnGet != nil {
			p.OnGet(true)
		}
		e := v.(*Engine)
		if err := s.ForkInto(e, opts); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.OnGet != nil {
		p.OnGet(false)
	}
	return s.Fork(opts)
}

// mutable gates the what-if mutation APIs: they apply to a paused
// in-flight run — typically a fresh fork, before its Run — never to an
// armed-but-unstarted, finished, or sealed engine.
func (e *Engine) mutable(op string) error {
	if e.state != runStarted {
		return fmt.Errorf("engine: %s requires a paused run (fork the engine or call RunEvents first)", op)
	}
	return nil
}

// SetDeadline moves the completion deadline of a job that has not yet
// arrived (deadline 0 removes it) — the "what if this job's deadline
// were tighter" branch mutation. Jobs already admitted keep the
// deadline their scheduling decisions were made under; replaying a
// changed deadline for those requires branching before their arrival.
func (e *Engine) SetDeadline(jobID int, deadline float64) error {
	if err := e.mutable("SetDeadline"); err != nil {
		return err
	}
	sj, ok := e.jobLookup(jobID)
	if !ok {
		return fmt.Errorf("engine: SetDeadline: no job %d in this replay", jobID)
	}
	if sj.arrived {
		return fmt.Errorf("engine: SetDeadline: job %d already arrived at t=%.3f; branch before its arrival to change its deadline", jobID, sj.info.Arrival)
	}
	if math.IsNaN(deadline) || deadline < 0 || (deadline > 0 && deadline < sj.info.Arrival) {
		return fmt.Errorf("engine: SetDeadline: deadline %v invalid for job %d arriving at %v", deadline, jobID, sj.info.Arrival)
	}
	sj.info.Deadline = deadline
	sj.out.Deadline = deadline
	return nil
}

// InjectJob adds a job arrival at or after the pause point — the "what
// if another job showed up" branch mutation. The job joins the replay
// exactly as a traced arrival would: its arrival event enters the
// queue with the next sequence number, so two engines injecting the
// same job at the same pause point stay byte-identical. The template
// is treated read-only like the trace's. Injecting into a completed
// replay revives it: the next Run continues with the new arrival.
func (e *Engine) InjectJob(j *trace.Job) error {
	if err := e.mutable("InjectJob"); err != nil {
		return err
	}
	if j == nil || j.Template == nil {
		return fmt.Errorf("engine: InjectJob: nil job or template")
	}
	if err := j.Template.Validate(); err != nil {
		return fmt.Errorf("engine: InjectJob: %w", err)
	}
	if math.IsNaN(j.Arrival) || j.Arrival < e.clock.Now() {
		return fmt.Errorf("engine: InjectJob: arrival %v is in the simulated past (now %v)", j.Arrival, e.clock.Now())
	}
	if j.Deadline < 0 || (j.Deadline > 0 && j.Deadline < j.Arrival) {
		return fmt.Errorf("engine: InjectJob: deadline %v before arrival %v", j.Deadline, j.Arrival)
	}
	if j.Template.NumReduces > 0 && e.cfg.ReduceSlots == 0 {
		return fmt.Errorf("engine: InjectJob: job %d needs reduce slots but cluster has none", j.ID)
	}
	exists := false
	if e.indexOf == nil {
		exists = j.ID >= 0 && j.ID < len(e.jobs)
	} else {
		_, exists = e.indexOf[j.ID]
	}
	if exists {
		return fmt.Errorf("engine: InjectJob: job ID %d already in the replay", j.ID)
	}
	e.ownIndex()

	slowstart := int(float64(j.Template.NumMaps)*e.cfg.MinMapPercentCompleted + 0.9999)
	if slowstart < 1 {
		slowstart = 1
	}
	sj := &simJob{
		info: sched.JobInfo{
			ID: j.ID, Name: j.Name,
			Arrival: j.Arrival, Deadline: j.Deadline,
			NumMaps: j.Template.NumMaps, NumReduces: j.Template.NumReduces,
			Profile: j.Template.Profile(),
		},
		tpl: j.Template,
		out: JobOutcome{
			ID: j.ID, Name: j.Name,
			Arrival: j.Arrival, Deadline: j.Deadline,
		},
		slowstartMin: slowstart,
	}
	if e.cfg.PreemptMapTasks {
		sj.runningMaps = make(map[int]*des.Event)
	}
	if e.cfg.RecordSpans {
		sj.out.MapSpans = make([]Span, j.Template.NumMaps)
		sj.out.ReduceSpans = make([]Span, j.Template.NumReduces)
	}
	e.extra = append(e.extra, sj)
	e.indexOf[j.ID] = -len(e.extra)
	e.remaining++
	e.q.Push(j.Arrival, evJobArrival, j.ID, nil)
	return nil
}

// ownIndex materializes an engine-owned indexOf map covering the base
// jobs slab, replacing the dense-dispatch nil or a map borrowed from a
// fork source. Cold path: only InjectJob needs it.
func (e *Engine) ownIndex() {
	if e.indexOf != nil && !e.sharedIndex {
		return
	}
	m := make(map[int]int, len(e.jobs)+len(e.extra)+1)
	if e.indexOf == nil {
		for i := range e.jobs {
			m[i] = i // dense dispatch: ID == slab index by Reset's check
		}
	} else {
		for id, i := range e.indexOf {
			m[id] = i
		}
	}
	e.indexOf = m
	e.sharedIndex = false
}

// SetPolicy swaps the scheduling policy at the pause point — the
// "what if we ran MaxEDF from here on" branch mutation. Active jobs
// are re-admitted under the new policy as if they had just arrived:
// their WantedMaps/WantedReduces sizing is cleared and re-derived by
// the new policy's hooks, and a batch policy's index is rebuilt in
// queue order. The instance must be fresh for stateful policies
// (indexed ones always are per-engine).
func (e *Engine) SetPolicy(p sched.Policy) error {
	if err := e.mutable("SetPolicy"); err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("engine: SetPolicy: nil policy")
	}
	e.policy = p
	e.batch, _ = p.(sched.BatchPolicy)
	e.arrive, _ = p.(sched.ArrivalAware)
	for _, info := range e.active {
		info.WantedMaps, info.WantedReduces = 0, 0
	}
	if e.batch != nil {
		e.batch.ResetQueue()
		for _, info := range e.active {
			e.batch.OnJobAdmit(info, e.cfg.MapSlots, e.cfg.ReduceSlots)
		}
	} else if e.arrive != nil {
		for _, info := range e.active {
			e.arrive.OnJobArrival(info, e.cfg.MapSlots, e.cfg.ReduceSlots)
		}
	}
	return nil
}
