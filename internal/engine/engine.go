// Package engine implements the SimMR Simulator Engine (§III-B): a
// discrete-event simulator that replays job traces while emulating the
// Hadoop job master's map/reduce slot-allocation decisions across
// multiple concurrent jobs.
//
// Faithful to the paper:
//
//   - The engine simulates at task level only — no TaskTrackers, disks,
//     or network packets. Task latencies come from the trace's job
//     templates.
//   - It maintains a priority queue over the paper's seven event types:
//     job arrival/departure, map/reduce task arrival/departure, and
//     map-stage completion.
//   - It talks to the scheduling policy through the narrow two-function
//     interface ChooseNextMapTask / ChooseNextReduceTask.
//   - Reduce tasks start once minMapPercentCompleted of the job's maps
//     have finished. A first-wave reduce occupies its slot through a
//     "filler" shuffle of unbounded duration; when the map stage
//     completes, the filler's departure is patched to
//     mapStageEnd + firstShuffle + reducePhase, which models the
//     overlapped shuffle exactly (§III-B).
//   - Tasks are never preempted once a slot is allocated (the cause of
//     the Figure 7(a) "bump" the paper discusses).
package engine

import (
	"fmt"
	"math"
	"sync"

	"simmr/internal/des"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// SemanticsVersion numbers the engine's observable simulation
// semantics: two binaries with the same SemanticsVersion MUST produce
// byte-identical Results for every (trace, config, policy) input. It
// is folded into every replay-result cache key (internal/rcache), so a
// persistent -cache-dir populated by an older binary stops serving
// entries the moment the engine's behavior changes. Bump it with ANY
// outcome-affecting engine change — a shuffle-model fix, an event-order
// tweak, a float reassociation — even ones that feel like pure bug
// fixes; the golden-key test in rcache pins the consequence so the
// bump is a conscious, reviewable decision.
const SemanticsVersion = 1

// Config parameterizes a replay run.
type Config struct {
	// MapSlots and ReduceSlots are the cluster-wide slot counts
	// (the paper's testbed: 64 and 64).
	MapSlots    int
	ReduceSlots int

	// MinMapPercentCompleted is the fraction of a job's map tasks that
	// must complete before its reduce tasks are scheduled (the
	// user-settable parameter of §III-B). At least one map must always
	// complete first. Default 0.05 mirrors Hadoop's slowstart.
	MinMapPercentCompleted float64

	// RecordSpans enables per-task span capture (needed for the
	// Figure 1/2 progress plots; off by default to keep replay fast).
	RecordSpans bool

	// NoShuffleModel is an ablation switch: model reduce tasks the way
	// Mumak does — reduce runtime = wait-for-all-maps + reduce phase,
	// with no shuffle at all. Used to quantify how much of SimMR's
	// accuracy comes from its shuffle modeling (§IV-A discussion).
	NoShuffleModel bool

	// NoFirstShuffleSpecialCase is a second ablation switch: treat every
	// shuffle as "typical" (duration counted from the reduce's own
	// start), ignoring the overlapped first-wave measurement. Isolates
	// the value of the paper's non-overlapping first-shuffle treatment.
	NoFirstShuffleSpecialCase bool

	// PreemptMapTasks extends the paper: when a job with an earlier
	// deadline arrives and no map slots are free, running map tasks of
	// later-deadline jobs are killed (and later re-executed from
	// scratch, replaying their recorded durations). The paper attributes
	// the Figure 7(a) "bump" to the absence of exactly this mechanism
	// ("the scheduler does not pre-empt tasks themselves"); enabling it
	// lets that explanation be tested. Only meaningful with
	// deadline-driven policies.
	PreemptMapTasks bool

	// Sink, when non-nil, receives every engine event (obs.Kind
	// taxonomy) synchronously in handled order, plus the run-level
	// counters at the end of Run. Every emission sits behind a single
	// nil check, so a nil Sink costs nothing on the hot path
	// (`make bench-guard` enforces this). Sinks need not be safe for
	// concurrent use — each engine must own its own instance; parallel
	// runtimes build them via obs.SinkFactory (DESIGN.md §8).
	Sink obs.Sink
}

// DefaultConfig returns the paper's validation configuration: 64 map
// and 64 reduce slots.
func DefaultConfig() Config {
	return Config{MapSlots: 64, ReduceSlots: 64, MinMapPercentCompleted: 0.05}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.MapSlots <= 0:
		return fmt.Errorf("engine: MapSlots = %d", c.MapSlots)
	case c.ReduceSlots < 0:
		return fmt.Errorf("engine: ReduceSlots = %d", c.ReduceSlots)
	case c.MinMapPercentCompleted < 0 || c.MinMapPercentCompleted > 1:
		return fmt.Errorf("engine: MinMapPercentCompleted = %v", c.MinMapPercentCompleted)
	}
	return nil
}

// The seven event types of §III-B.
const (
	evJobArrival = iota
	evJobDeparture
	evMapTaskArrival
	evMapTaskDeparture
	evReduceTaskArrival
	evReduceTaskDeparture
	evMapStageComplete
)

// Span is a recorded task interval; for reduce tasks ShuffleEnd splits
// the shuffle/sort phase from the reduce phase.
type Span struct {
	Start, End float64
	ShuffleEnd float64 // reduce tasks only
}

// JobOutcome reports one replayed job.
type JobOutcome struct {
	ID          int
	Name        string
	Arrival     float64
	Finish      float64
	Deadline    float64
	MapStageEnd float64

	// Per-job event counts, always maintained (plain integer
	// increments): task executions completed and engine events handled
	// for this job, so callers can report task counts without
	// re-reading the trace.
	MapTasksRun    int // map-task departures (preempted attempts excluded)
	ReduceTasksRun int // reduce-task departures
	PreemptedMaps  int // map attempts killed by preemption (re-run later)
	Events         int // engine events handled for this job

	// Spans are present only when Config.RecordSpans is set.
	MapSpans    []Span
	ReduceSpans []Span
}

// CompletionTime returns finish − arrival.
func (o *JobOutcome) CompletionTime() float64 { return o.Finish - o.Arrival }

// ExceededDeadline reports whether the job missed its deadline.
func (o *JobOutcome) ExceededDeadline() bool {
	return o.Deadline > 0 && o.Finish > o.Deadline
}

// Result is the outcome of one replay.
type Result struct {
	Jobs     []JobOutcome
	Events   uint64
	Makespan float64
}

// fillerReduce tracks a first-wave reduce waiting for its job's map
// stage to complete so its infinite-duration filler can be patched.
type fillerReduce struct {
	ev           *des.Event
	firstShuffle float64
	reducePhase  float64
	spanIdx      int
}

// simJob is the engine-local mutable replay state of one job. All of it
// lives here (never on trace.Job), which is what lets a single immutable
// trace be shared read-only across any number of concurrent engines —
// see DESIGN.md "Concurrency model".
type simJob struct {
	info sched.JobInfo   // scheduler-visible state, engine-owned
	tpl  *trace.Template // read-only view into the shared trace
	out  JobOutcome

	nextMap      int
	nextReduce   int
	firstWave    int // count of first-wave reduces started
	typicalWave  int // count of typical-wave reduces started
	slowstartMin int
	seq          int // arrival order; tie-break for the preemption index

	// retryMaps holds task indices killed by preemption, re-executed
	// before fresh indices are drawn.
	retryMaps []int
	// runningMaps tracks in-flight map departures by task index, so
	// preemption can cancel them. Allocated only under PreemptMapTasks.
	runningMaps map[int]*des.Event

	fillers       []fillerReduce
	mapStageEvent bool // map-stage-complete event already scheduled
	arrived       bool // job-arrival event handled
	departed      bool
}

// runState tracks where an engine is in its arm → run → seal lifecycle.
type runState uint8

const (
	// runIdle: armed by New/Reset; Run has not started.
	runIdle runState = iota
	// runStarted: arrival lane installed, replay in flight — possibly
	// paused between macro-steps by RunEvents. Forked engines start here.
	runStarted
	// runDone: Run assembled its Result; only Reset re-arms.
	runDone
	// runSealed: Snapshot froze this engine as fork source; immutable
	// (concurrent forks read it) until Reset un-seals.
	runSealed
)

// Engine replays one trace. Build with New, call Run once; Reset
// re-arms a used engine for another run while retaining its warmed
// allocations (see Reset).
//
// The engine never mutates the trace or its templates: every piece of
// mutable per-job replay state lives in engine-local simJob slots, so
// concurrent engines may share one trace without cloning or locking.
type Engine struct {
	cfg    Config
	policy sched.Policy

	clock des.Clock
	q     des.EventQueue

	// jobs is a single contiguous slab; pointers into it (sj.info) stay
	// valid because it is fully sized in Reset and never reallocated
	// during a run.
	jobs    []simJob
	indexOf map[int]int // job ID -> index in jobs; nil when IDs are dense
	active  []*sched.JobInfo
	// arrivals is the trace's shared replay order, installed as the
	// event queue's lane when the run starts.
	arrivals *trace.Arrivals

	freeMap    int
	freeReduce int
	remaining  int
	state      runState

	// Copy-on-write fork state, nil/empty on ordinary engines. src is
	// the sealed snapshot this engine was forked from; jobs-slab chunks
	// copy from it lazily on first write, tracked by the dirty bitset
	// (see fork.go). extra holds jobs injected after the branch point —
	// individually boxed so slab pointers never move — and sharedIndex
	// marks indexOf as borrowed read-only from the snapshot. snap caches
	// this engine's own Snapshot once sealed.
	src         *Snapshot
	dirty       []uint64
	extra       []*simJob
	sharedIndex bool
	snap        *Snapshot
	stats       ForkStats

	// Policy capability dispatch, resolved once per Reset so the hot
	// path never repeats a type assertion. batch non-nil selects the
	// sub-linear allocation fast path (DESIGN.md §11); arrive is the
	// paper-interface arrival hook used on the scan path.
	batch  sched.BatchPolicy
	arrive sched.ArrivalAware

	// preemptIdx, allocated only under PreemptMapTasks, indexes active
	// jobs by latest effective deadline (ties: earliest arrival seq)
	// with "has running map tasks" as the eligibility bit, replacing
	// preemptFor's O(active) victim rescan with an O(1) query.
	preemptIdx *sched.Tournament
	arrivalSeq int

	// sink mirrors cfg.Sink; every emission is guarded by a nil check
	// so the disabled path stays allocation- and branch-cheap.
	sink obs.Sink
	// depth and prog are cfg.Sink's DepthSampler / ProgressSampler
	// sides, resolved once at Reset so step() pays cached-field nil
	// checks instead of per-step type assertions; depthTick counts
	// macro-steps between samples (one cadence for both).
	depth     obs.DepthSampler
	prog      obs.ProgressSampler
	depthTick uint32
	// Run-level observability counters, maintained unconditionally
	// (plain increments on cold paths) and delivered via sink.RunEnd.
	preemptions      uint64
	fillerPatches    uint64
	mapSlotAllocs    uint64
	reduceSlotAllocs uint64
}

// New builds an engine for the trace and policy. The trace is validated
// and never modified — neither here nor during Run — so callers may
// share one trace across concurrent engines. The reverse holds too: the
// engine streams arrival times and IDs from the trace's jobs for the
// whole run, so they must not be edited (StripIdle, CompressArrivals,
// Normalize, ...) while the engine, or a Snapshot or fork of it, is
// live.
func New(cfg Config, tr *trace.Trace, policy sched.Policy) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg, tr, policy); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-initializes the engine in place for a fresh run under a new
// (or identical) configuration, trace, and policy — the engine-reuse
// contract behind Pool. Everything observable is cleared: the clock,
// the event queue's counters and pending events, all per-job replay
// state, the active set, and the run counters; a reset engine produces
// byte-identical Results to a newly built one. What is *retained* is
// warmed capacity: the event queue's slab and free list, the jobs slab,
// the active slice, the ID-dispatch map, and per-job retry/filler
// scratch slices, so steady-state reuse allocates only the per-run
// outputs (Result, outcomes, spans) instead of rebuilding the engine's
// working set from scratch. The trace must stay unedited until the run
// ends, as for New.
func (e *Engine) Reset(cfg Config, tr *trace.Trace, policy sched.Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if policy == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	n := len(tr.Jobs)
	e.arrivals = tr.Arrivals()
	e.cfg = cfg
	e.policy = policy
	e.sink = cfg.Sink
	e.depth, _ = cfg.Sink.(obs.DepthSampler)
	e.prog, _ = cfg.Sink.(obs.ProgressSampler)
	e.depthTick = 0
	e.clock.Reset()
	e.q.Reset()
	if cap(e.jobs) >= n {
		// Zero any tail beyond the new job count so a pooled engine does
		// not pin templates (whole traces) from a previous, larger run.
		for i := n; i < len(e.jobs); i++ {
			e.jobs[i] = simJob{}
		}
		e.jobs = e.jobs[:n]
	} else {
		e.jobs = make([]simJob, n)
	}
	if cap(e.active) >= n {
		e.active = e.active[:0]
	} else {
		e.active = make([]*sched.JobInfo, 0, n)
	}
	e.freeMap = cfg.MapSlots
	e.freeReduce = cfg.ReduceSlots
	e.remaining = n
	e.state = runIdle
	// Reset un-seals and un-forks: the snapshot link, dirty bitset, and
	// injected-job slab all belong to the previous arming. Outstanding
	// forks of a sealed engine must finish before it is Reset (they read
	// its slabs concurrently); the snapshot-holding side enforces that.
	e.src = nil
	e.snap = nil
	e.stats = ForkStats{}
	for i := range e.extra {
		e.extra[i] = nil
	}
	e.extra = e.extra[:0]
	if e.sharedIndex {
		// The map belongs to the fork source; drop it rather than clear it.
		e.indexOf = nil
		e.sharedIndex = false
	}
	e.batch, _ = policy.(sched.BatchPolicy)
	if e.batch != nil {
		e.batch.ResetQueue()
	}
	e.arrive, _ = policy.(sched.ArrivalAware)
	e.arrivalSeq = 0
	switch {
	case !cfg.PreemptMapTasks:
		e.preemptIdx = nil
	case e.preemptIdx == nil:
		e.preemptIdx = e.newPreemptIdx()
	default:
		e.preemptIdx.Reset()
	}
	e.preemptions = 0
	e.fillerPatches = 0
	e.mapSlotAllocs = 0
	e.reduceSlotAllocs = 0
	// Normalized traces carry dense IDs 0..n-1; dispatch on a slice
	// index then, avoiding the map (and its per-run fill).
	dense := true
	for i, j := range tr.Jobs {
		if j.ID != i {
			dense = false
			break
		}
	}
	if dense {
		e.indexOf = nil
	} else if e.indexOf == nil {
		e.indexOf = make(map[int]int, n)
	} else {
		clear(e.indexOf)
	}
	for i, j := range tr.Jobs {
		if j.Template.NumReduces > 0 && cfg.ReduceSlots == 0 {
			return fmt.Errorf("engine: job %d needs reduce slots but cluster has none", j.ID)
		}
		slowstart := int(float64(j.Template.NumMaps)*cfg.MinMapPercentCompleted + 0.9999)
		if slowstart < 1 {
			slowstart = 1
		}
		sj := &e.jobs[i]
		sj.info = sched.JobInfo{
			ID: j.ID, Name: j.Name,
			Arrival: j.Arrival, Deadline: j.Deadline,
			NumMaps: j.Template.NumMaps, NumReduces: j.Template.NumReduces,
			Profile: j.Template.Profile(),
		}
		sj.tpl = j.Template
		// The previous run's outcome (and its span slices) escaped into
		// that run's Result, so the outcome is rebuilt, never recycled.
		sj.out = JobOutcome{
			ID: j.ID, Name: j.Name,
			Arrival: j.Arrival, Deadline: j.Deadline,
		}
		sj.nextMap = 0
		sj.nextReduce = 0
		sj.firstWave = 0
		sj.typicalWave = 0
		sj.slowstartMin = slowstart
		sj.seq = 0
		sj.retryMaps = sj.retryMaps[:0]
		sj.fillers = sj.fillers[:0]
		sj.mapStageEvent = false
		sj.arrived = false
		sj.departed = false
		switch {
		case !cfg.PreemptMapTasks:
			sj.runningMaps = nil
		case sj.runningMaps == nil:
			sj.runningMaps = make(map[int]*des.Event)
		default:
			clear(sj.runningMaps)
		}
		if cfg.RecordSpans {
			sj.out.MapSpans = make([]Span, j.Template.NumMaps)
			sj.out.ReduceSpans = make([]Span, j.Template.NumReduces)
		}
		if e.indexOf != nil {
			e.indexOf[j.ID] = i
		}
	}
	return nil
}

// newPreemptIdx builds the preemption victim tournament: active jobs
// ordered by latest effective deadline (ties: earliest arrival seq),
// eligible while they have running map tasks. The closures read
// through jobROByID — pure lookups that must not trigger a
// copy-on-write chunk copy on forked engines.
func (e *Engine) newPreemptIdx() *sched.Tournament {
	return sched.NewTournament(
		func(a, b *sched.JobInfo) bool {
			if da, db := a.EffectiveDeadline(), b.EffectiveDeadline(); da != db {
				return da > db // latest deadline wins the victim tournament
			}
			return e.jobROByID(a.ID).seq < e.jobROByID(b.ID).seq
		},
		func(j *sched.JobInfo) bool { return len(e.jobROByID(j.ID).runningMaps) > 0 },
	)
}

// jobAt returns the mutable engine-local state of the job at slab index
// i, first copying its chunk from the fork source if this engine is a
// live fork and the chunk is still clean. Ordinary engines pay one nil
// check. Handlers go through here (or jobByID); pure reads that must
// not force a copy use jobRO.
func (e *Engine) jobAt(i int) *simJob {
	if e.src != nil {
		e.ensureChunk(i / cowChunkJobs)
	}
	return &e.jobs[i]
}

// jobRO returns read-only job state without triggering a chunk copy:
// on a live fork, reads of clean chunks fall through to the sealed
// snapshot's slab. Callers must not mutate the result or retain
// pointers into it across handlers.
func (e *Engine) jobRO(i int) *simJob {
	if e.src != nil && !e.chunkDirty(i/cowChunkJobs) {
		return &e.src.e.jobs[i]
	}
	return &e.jobs[i]
}

// jobIndex maps a job ID to its jobs-slab index; negative values are
// encoded extra-slab slots (injected jobs): index -k-1 is extra[k].
func (e *Engine) jobIndex(id int) int {
	if e.indexOf == nil {
		return id
	}
	return e.indexOf[id]
}

// jobByID resolves an event's job ID to its mutable engine-local state.
func (e *Engine) jobByID(id int) *simJob {
	i := e.jobIndex(id)
	if i < 0 {
		return e.extra[-i-1]
	}
	return e.jobAt(i)
}

// jobROByID is jobByID without the copy-on-write trigger.
func (e *Engine) jobROByID(id int) *simJob {
	i := e.jobIndex(id)
	if i < 0 {
		return e.extra[-i-1]
	}
	return e.jobRO(i)
}

// jobLookup is jobByID for IDs that may not exist (mutation APIs).
func (e *Engine) jobLookup(id int) (*simJob, bool) {
	if e.indexOf == nil {
		if id < 0 || id >= len(e.jobs) {
			return nil, false
		}
		return e.jobAt(id), true
	}
	i, ok := e.indexOf[id]
	if !ok {
		return nil, false
	}
	if i < 0 {
		return e.extra[-i-1], true
	}
	return e.jobAt(i), true
}

// start installs the trace's arrivals as the event queue's lane, moving
// the engine from armed to in-flight. The lane pops arrivals in
// (arrival time, slab index) order ahead of any same-time heap event —
// exactly the order pushing every arrival up front, in slab order,
// would give — while the heap holds only in-flight work. Idempotent
// while the run is in flight; rejected once the run finished (the old
// "Run called twice" protection) or the engine was sealed by Snapshot.
func (e *Engine) start() error {
	switch e.state {
	case runIdle:
		e.state = runStarted
		e.q.SetLane(e.arrivals, evJobArrival)
		return nil
	case runStarted:
		return nil
	case runDone:
		return fmt.Errorf("engine: Run called twice without Reset")
	default:
		return fmt.Errorf("engine: engine is sealed by Snapshot; Reset before running again")
	}
}

// step executes one macro-step: pop the earliest event, drain every
// event scheduled for that same instant, then run one allocation
// round. Same-instant draining keeps simultaneous arrivals and
// departures all visible to the policy before any slot is handed out
// (otherwise the first of two same-time arrivals would grab every slot
// unconditionally). Macro-step boundaries are the only pause — and
// therefore the only snapshot/fork — points: between steps no job
// holds a half-processed event, which is what keeps lazily copied jobs
// remappable (see fork.go).
func (e *Engine) step() error {
	if e.q.Len() == 0 {
		return fmt.Errorf("engine: deadlock: %d jobs unfinished with empty event queue", e.remaining)
	}
	ev := e.q.Pop()
	e.clock.AdvanceTo(ev.Time)
	if err := e.handle(ev); err != nil {
		return err
	}
	e.q.Free(ev)
	for e.q.Len() > 0 && e.q.Peek().Time == e.clock.Now() {
		ev := e.q.Pop()
		if err := e.handle(ev); err != nil {
			return err
		}
		e.q.Free(ev)
	}
	e.allocate()
	if e.depth != nil || e.prog != nil {
		if e.depthTick++; e.depthTick >= depthSampleEvery {
			e.depthTick = 0
			if e.depth != nil {
				e.depth.SampleDepth(e.clock.Now(), e.q.Len())
			}
			if e.prog != nil {
				e.prog.SampleProgress(e.clock.Now(), e.q.Fired(), len(e.jobs)-e.remaining, len(e.jobs))
			}
		}
	}
	return nil
}

// depthSampleEvery is the macro-step period of queue-depth sampling
// for sinks implementing obs.DepthSampler — frequent enough to resolve
// queue pressure over a run, rare enough to stay off the hot path.
const depthSampleEvery = 64

// Run replays the trace to completion and assembles the Result. Each
// New or Reset arms exactly one full replay; running twice without a
// Reset in between would replay on dirty state and is rejected. Run
// after RunEvents continues the paused replay; Run on a fork continues
// from the branch point.
func (e *Engine) Run() (*Result, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	for e.remaining > 0 {
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	e.state = runDone
	res := &Result{Events: e.q.Fired(), Jobs: make([]JobOutcome, 0, len(e.jobs)+len(e.extra))}
	for i := range e.jobs {
		sj := e.jobRO(i)
		res.Jobs = append(res.Jobs, sj.out)
		if sj.out.Finish > res.Makespan {
			res.Makespan = sj.out.Finish
		}
	}
	for _, sj := range e.extra {
		res.Jobs = append(res.Jobs, sj.out)
		if sj.out.Finish > res.Makespan {
			res.Makespan = sj.out.Finish
		}
	}
	if e.sink != nil {
		e.sink.RunEnd(e.counters(res))
	}
	return res, nil
}

// RunEvents advances the replay until at least n total events have
// fired (as counted by the queue's Fired counter — the same index
// Result.Events reports) or the replay completes, then pauses at a
// macro-step boundary. It reports whether the replay is complete.
// RunEvents(0) starts the run — arrivals laned, nothing fired — so a
// t=0 snapshot is well-defined. A paused engine accepts the mutation
// APIs (SetDeadline, InjectJob, SetPolicy), further RunEvents calls,
// Snapshot, or a finishing Run; note Run, not RunEvents, assembles the
// Result and emits the sink's RunEnd.
func (e *Engine) RunEvents(n uint64) (bool, error) {
	if err := e.start(); err != nil {
		return false, err
	}
	for e.remaining > 0 && e.q.Fired() < n {
		if err := e.step(); err != nil {
			return false, err
		}
	}
	return e.remaining == 0, nil
}

// Now returns the current simulated time — the pause point's timestamp
// on an engine stopped by RunEvents.
func (e *Engine) Now() float64 { return e.clock.Now() }

// EventsFired returns the number of events handled so far; on a fork it
// includes the shared prefix's events, matching Result.Events.
func (e *Engine) EventsFired() uint64 { return e.q.Fired() }

// counters assembles the run-level observability totals.
func (e *Engine) counters(res *Result) obs.Counters {
	return obs.Counters{
		Events:           e.q.Fired(),
		HeapHighWater:    e.q.HighWater(),
		Preemptions:      e.preemptions,
		FillerPatches:    e.fillerPatches,
		MapSlotAllocs:    e.mapSlotAllocs,
		ReduceSlotAllocs: e.reduceSlotAllocs,
		Jobs:             len(res.Jobs),
		Makespan:         res.Makespan,
	}
}

// emit delivers one observability event; callers must have checked
// e.sink != nil (kept out of this function so the nil test inlines at
// each cold call site without a call in the disabled case).
func (e *Engine) emit(kind obs.Kind, jobID, task int, end, shuffleEnd float64) {
	e.sink.Event(obs.Event{
		Time: e.clock.Now(), Kind: kind,
		JobID: jobID, Task: task,
		End: end, ShuffleEnd: shuffleEnd,
	})
}

// handle dispatches one event to its handler. Handlers must not retain
// ev: Run recycles it into the queue's free list immediately after.
func (e *Engine) handle(ev *des.Event) error {
	sj := e.jobByID(ev.JobID)
	sj.out.Events++
	switch ev.Type {
	case evJobArrival:
		e.onJobArrival(sj)
	case evMapTaskArrival:
		e.onMapTaskArrival(sj)
	case evMapTaskDeparture:
		e.onMapTaskDeparture(sj, ev.Task)
	case evMapStageComplete:
		e.onMapStageComplete(sj)
	case evReduceTaskArrival:
		e.onReduceTaskArrival(sj)
	case evReduceTaskDeparture:
		e.onReduceTaskDeparture(sj, ev.Task)
	case evJobDeparture:
		e.onJobDeparture(sj)
	default:
		return fmt.Errorf("engine: unknown event type %d", ev.Type)
	}
	return nil
}

// allocate is the slot-allocation step run after every event: while free
// slots remain and the policy nominates jobs, reserve slots and emit
// task-arrival events. A BatchPolicy hands out all free slots in one
// call per task kind; the two paths produce identical event sequences
// (the differential suite replays every policy on both and compares
// outcomes and observability streams byte for byte).
func (e *Engine) allocate() {
	now := e.clock.Now()
	if e.batch != nil {
		e.allocateBatch(now)
		return
	}
	for e.freeMap > 0 {
		idx := e.policy.ChooseNextMapTask(e.active)
		if idx < 0 {
			break
		}
		info := e.active[idx]
		info.ScheduledMaps++
		e.freeMap--
		e.mapSlotAllocs++
		e.q.Push(now, evMapTaskArrival, info.ID, nil)
		if e.sink != nil {
			e.emit(obs.KindMapSlotAlloc, info.ID, -1, 0, 0)
		}
	}
	for e.freeReduce > 0 {
		idx := e.policy.ChooseNextReduceTask(e.active)
		if idx < 0 {
			break
		}
		info := e.active[idx]
		info.ScheduledReduces++
		e.freeReduce--
		e.reduceSlotAllocs++
		e.q.Push(now, evReduceTaskArrival, info.ID, nil)
		if e.sink != nil {
			e.emit(obs.KindReduceSlotAlloc, info.ID, -1, 0, 0)
		}
	}
}

// allocateBatch is the indexed fast path: one AssignMapSlots and one
// AssignReduceSlots call cover the whole allocation round. The policy
// increments ScheduledMaps/ScheduledReduces per grant (the BatchPolicy
// contract), so only the engine-side bookkeeping happens here — in the
// same order the scan path would apply it.
func (e *Engine) allocateBatch(now float64) {
	if e.freeMap > 0 {
		for _, idx := range e.batch.AssignMapSlots(e.active, e.freeMap) {
			info := e.active[idx]
			e.freeMap--
			e.mapSlotAllocs++
			e.q.Push(now, evMapTaskArrival, info.ID, nil)
			if e.sink != nil {
				e.emit(obs.KindMapSlotAlloc, info.ID, -1, 0, 0)
			}
		}
	}
	if e.freeReduce > 0 {
		for _, idx := range e.batch.AssignReduceSlots(e.active, e.freeReduce) {
			info := e.active[idx]
			e.freeReduce--
			e.reduceSlotAllocs++
			e.q.Push(now, evReduceTaskArrival, info.ID, nil)
			if e.sink != nil {
				e.emit(obs.KindReduceSlotAlloc, info.ID, -1, 0, 0)
			}
		}
	}
}

func (e *Engine) onJobArrival(sj *simJob) {
	sj.seq = e.arrivalSeq
	sj.arrived = true
	e.arrivalSeq++
	e.active = append(e.active, &sj.info)
	if e.sink != nil {
		e.emit(obs.KindJobArrival, sj.info.ID, -1, 0, 0)
	}
	if e.batch != nil {
		e.batch.OnJobAdmit(&sj.info, e.cfg.MapSlots, e.cfg.ReduceSlots)
	} else if e.arrive != nil {
		e.arrive.OnJobArrival(&sj.info, e.cfg.MapSlots, e.cfg.ReduceSlots)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Add(&sj.info)
	}
	if e.cfg.PreemptMapTasks {
		e.preemptFor(sj)
	}
}

// preemptFor frees map slots for a newly arrived deadline job by killing
// running map tasks of strictly later-deadline jobs, latest deadline
// first. Killed tasks return to their job's retry queue and re-execute
// from scratch with their recorded durations.
func (e *Engine) preemptFor(sj *simJob) {
	if sj.info.Deadline <= 0 {
		return
	}
	want := sj.info.PendingMaps()
	if sj.info.WantedMaps > 0 && sj.info.WantedMaps < want {
		want = sj.info.WantedMaps
	}
	for e.freeMap < want {
		victim := e.latestDeadlineVictim(sj.info.Deadline)
		if victim == nil || !e.preemptVictim(victim) {
			return
		}
	}
}

// preemptVictim kills the victim's most recently scheduled running map
// (the one with the most remaining work under FIFO duration replay),
// returning its task index to the victim's retry queue. Reports whether
// a task was actually killed.
func (e *Engine) preemptVictim(victim *simJob) bool {
	killTask := -1
	var killEv *des.Event
	for task, ev := range victim.runningMaps {
		if killEv == nil || ev.Time > killEv.Time {
			killTask, killEv = task, ev
		}
	}
	if killEv == nil {
		return false
	}
	e.q.Remove(killEv)
	e.q.Free(killEv)
	delete(victim.runningMaps, killTask)
	victim.retryMaps = append(victim.retryMaps, killTask)
	victim.info.ScheduledMaps--
	victim.out.PreemptedMaps++
	e.preemptions++
	e.freeMap++
	e.preemptIdx.Fix(&victim.info)
	if e.batch != nil {
		e.batch.OnJobUpdate(&victim.info)
	}
	if e.sink != nil {
		e.emit(obs.KindPreempt, victim.info.ID, killTask, 0, 0)
		e.emit(obs.KindMapSlotRelease, victim.info.ID, killTask, 0, 0)
	}
	return true
}

// latestDeadlineVictim returns the running job with the latest effective
// deadline strictly later than `than`, or nil. The preemption index
// maximizes (effective deadline, earliest arrival) over jobs with
// running maps, so one winner query plus the strictly-later check
// replaces the old O(active) rescan per kill; the winner is the same
// job the scan would have picked (no-deadline jobs carry +Inf and so
// still win outright, ties resolve to the earliest-arrived victim).
func (e *Engine) latestDeadlineVictim(than float64) *simJob {
	info := e.preemptIdx.Best()
	if info == nil || info.EffectiveDeadline() <= than {
		return nil
	}
	return e.jobByID(info.ID)
}

func (e *Engine) onMapTaskArrival(sj *simJob) {
	now := e.clock.Now()
	var i int
	if n := len(sj.retryMaps); n > 0 {
		i = sj.retryMaps[n-1]
		sj.retryMaps = sj.retryMaps[:n-1]
	} else {
		i = sj.nextMap
		sj.nextMap++
	}
	dur := sj.tpl.MapDuration(i)
	if sj.out.MapSpans != nil {
		sj.out.MapSpans[i] = Span{Start: now, End: now + dur}
	}
	ev := e.q.PushTask(now+dur, evMapTaskDeparture, sj.info.ID, i)
	if e.cfg.PreemptMapTasks {
		sj.runningMaps[i] = ev
		e.preemptIdx.Fix(&sj.info) // job may have become a preemption candidate
	}
	if e.sink != nil {
		e.emit(obs.KindMapTaskStart, sj.info.ID, i, now+dur, 0)
	}
}

func (e *Engine) onMapTaskDeparture(sj *simJob, task int) {
	if e.cfg.PreemptMapTasks {
		delete(sj.runningMaps, task)
	}
	sj.info.CompletedMaps++
	sj.out.MapTasksRun++
	e.freeMap++
	if e.sink != nil {
		e.emit(obs.KindMapTaskFinish, sj.info.ID, task, 0, 0)
		e.emit(obs.KindMapSlotRelease, sj.info.ID, task, 0, 0)
	}
	if !sj.info.ReduceReady && sj.info.CompletedMaps >= sj.slowstartMin {
		sj.info.ReduceReady = true
	}
	if e.batch != nil {
		e.batch.OnJobUpdate(&sj.info)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Fix(&sj.info) // one fewer running map
	}
	if sj.info.MapsDone() && !sj.mapStageEvent {
		sj.mapStageEvent = true
		e.q.Push(e.clock.Now(), evMapStageComplete, sj.info.ID, nil)
	}
}

func (e *Engine) onMapStageComplete(sj *simJob) {
	now := e.clock.Now()
	sj.out.MapStageEnd = now
	if e.sink != nil {
		e.emit(obs.KindMapStageComplete, sj.info.ID, -1, 0, 0)
	}
	// Patch every filler reduce: its shuffle completes firstShuffle
	// seconds after the map stage, then its reduce phase runs.
	for _, f := range sj.fillers {
		end := now + f.firstShuffle + f.reducePhase
		e.q.Update(f.ev, end)
		e.fillerPatches++
		if sj.out.ReduceSpans != nil {
			sj.out.ReduceSpans[f.spanIdx].ShuffleEnd = now + f.firstShuffle
			sj.out.ReduceSpans[f.spanIdx].End = end
		}
		if e.sink != nil {
			e.emit(obs.KindFillerPatch, sj.info.ID, f.spanIdx, end, now+f.firstShuffle)
		}
	}
	// Keep the backing array: Reset truncates with [:0] so a pooled
	// engine reuses each job's filler slab across replays instead of
	// re-growing it (one append chain per job per run otherwise).
	sj.fillers = sj.fillers[:0]
	// Map-only jobs depart here; so do jobs whose reduces all finished
	// already (possible under the NoFirstShuffleSpecialCase ablation,
	// where a replayed cold shuffle can end before the map stage).
	if sj.info.Done() {
		e.departJob(sj)
	}
}

func (e *Engine) onReduceTaskArrival(sj *simJob) {
	now := e.clock.Now()
	i := sj.nextReduce
	sj.nextReduce++
	reducePhase := sj.tpl.ReduceDuration(i)

	if !sj.info.MapsDone() && !e.cfg.NoFirstShuffleSpecialCase {
		// First-wave reduce: schedule a filler task of infinite duration
		// and remember how to patch it when the map stage completes.
		w := sj.firstWave
		sj.firstWave++
		firstShuffle := sj.tpl.FirstShuffleDuration(w)
		if e.cfg.NoShuffleModel {
			firstShuffle = 0 // Mumak ablation: reduce starts right at map end
		}
		ev := e.q.PushTask(des.Infinity, evReduceTaskDeparture, sj.info.ID, i)
		sj.fillers = append(sj.fillers, fillerReduce{
			ev:           ev,
			firstShuffle: firstShuffle,
			reducePhase:  reducePhase,
			spanIdx:      i,
		})
		if sj.out.ReduceSpans != nil {
			sj.out.ReduceSpans[i] = Span{Start: now}
		}
		if e.sink != nil {
			inf := math.Inf(1)
			e.emit(obs.KindReduceTaskStart, sj.info.ID, i, inf, inf)
		}
		return
	}
	// Typical reduce: full shuffle then reduce phase. Under the
	// no-first-shuffle ablation this branch also (mis)handles first-wave
	// reduces, replaying a cold shuffle from the task's own start.
	w := sj.typicalWave
	sj.typicalWave++
	shuffle := sj.tpl.TypicalShuffleDuration(w)
	if e.cfg.NoShuffleModel {
		shuffle = 0
	}
	end := now + shuffle + reducePhase
	if sj.out.ReduceSpans != nil {
		sj.out.ReduceSpans[i] = Span{Start: now, ShuffleEnd: now + shuffle, End: end}
	}
	e.q.PushTask(end, evReduceTaskDeparture, sj.info.ID, i)
	if e.sink != nil {
		e.emit(obs.KindReduceTaskStart, sj.info.ID, i, end, now+shuffle)
	}
}

func (e *Engine) onReduceTaskDeparture(sj *simJob, task int) {
	sj.info.CompletedReduces++
	sj.out.ReduceTasksRun++
	e.freeReduce++
	if e.batch != nil {
		e.batch.OnJobUpdate(&sj.info)
	}
	if e.sink != nil {
		e.emit(obs.KindReduceTaskFinish, sj.info.ID, task, 0, 0)
		e.emit(obs.KindReduceSlotRelease, sj.info.ID, task, 0, 0)
	}
	if sj.info.Done() {
		e.departJob(sj)
	}
}

// departJob schedules the job-departure event (same timestamp; it flows
// through the queue so departures interleave deterministically).
func (e *Engine) departJob(sj *simJob) {
	if sj.departed {
		return
	}
	sj.departed = true
	e.q.Push(e.clock.Now(), evJobDeparture, sj.info.ID, nil)
}

func (e *Engine) onJobDeparture(sj *simJob) {
	sj.out.Finish = e.clock.Now()
	e.remaining--
	if e.sink != nil {
		e.emit(obs.KindJobDeparture, sj.info.ID, -1, 0, 0)
	}
	if e.batch != nil {
		e.batch.OnJobDepart(&sj.info)
	}
	if e.preemptIdx != nil {
		e.preemptIdx.Remove(&sj.info)
	}
	for i, info := range e.active {
		if info == &sj.info {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
}

// Run is a convenience wrapper: build and run in one call.
func Run(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, error) {
	e, err := New(cfg, tr, policy)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Pool caches engines for reuse across runs. A grid workload (capacity
// sweep, replay batch, deadline sweep) that replays hundreds of cells
// holds roughly one engine per worker goroutine instead of building —
// and garbage-collecting — one engine per cell: the queue slab, free
// list, jobs slab, and scratch slices all carry over through Reset.
//
// The zero value is ready to use, and a Pool is safe for concurrent
// use (it wraps sync.Pool, so idle engines are dropped under GC
// pressure and the steady-state population tracks GOMAXPROCS).
// Determinism is unaffected: a reset engine is observationally
// identical to a fresh one, so pooled results stay byte-identical to
// unpooled runs.
type Pool struct {
	p sync.Pool

	// OnGet, when set, observes every Get with whether a warmed engine
	// was reused (true) or a fresh one built (false) — the telemetry
	// hook behind the engine-reuse hit rate. Set it before the first
	// Get; it is called from whichever goroutine acquires the engine,
	// so it must be safe for concurrent calls.
	OnGet func(reused bool)
}

// Get returns an engine armed for (cfg, tr, policy): a reused engine
// when one is idle in the pool, a newly built one otherwise.
func (p *Pool) Get(cfg Config, tr *trace.Trace, policy sched.Policy) (*Engine, error) {
	if v := p.p.Get(); v != nil {
		if p.OnGet != nil {
			p.OnGet(true)
		}
		e := v.(*Engine)
		if err := e.Reset(cfg, tr, policy); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.OnGet != nil {
		p.OnGet(false)
	}
	return New(cfg, tr, policy)
}

// Put returns an engine to the pool. The caller must not use it
// afterwards; the next Get may hand it to another goroutine.
func (p *Pool) Put(e *Engine) {
	if e != nil {
		p.p.Put(e)
	}
}

// Run replays tr on a pooled engine: Get, Run, Put. The engine is
// returned to the pool even after a failed run — Reset re-arms it
// completely, so an engine carries no state out of an aborted replay.
func (p *Pool) Run(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, error) {
	e, err := p.Get(cfg, tr, policy)
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	p.Put(e)
	return res, err
}
