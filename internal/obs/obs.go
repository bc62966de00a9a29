// Package obs is the engine observability layer: a pluggable Sink
// interface that receives every scheduling decision the SimMR engine
// makes, as typed events, in exactly the order the engine handled them.
//
// The contract (DESIGN.md §8):
//
//   - Zero overhead when off. The engine guards every emission with a
//     single nil check; with no sink configured a replay performs no
//     observability work beyond plain integer counters.
//     `make bench-guard` enforces this against BENCH_engine.json.
//   - Exact order. Events are delivered synchronously from the engine's
//     event handlers, so the recorded sequence is the engine's handled
//     order — a replayed audit log of the simulation, in the spirit of
//     the paper's per-job timeline validation (Figures 1–2).
//   - One sink per engine. Sinks are not required to be safe for
//     concurrent use; under parallel fan-out (ReplayBatch,
//     CapacitySweep) every engine must own its own sink instance,
//     built via a SinkFactory.
//
// Concrete sinks shipped with the package: TimelineSink (slot
// occupancy, Figure 1/2-style), ChromeTraceSink (chrome://tracing /
// Perfetto export), and FlightRecorder (post-mortem ring). RecordSink
// captures the raw stream for tests and custom processing; sweep-wide
// counters live in the telemetry package.
package obs

import "math"

// Kind identifies one engine event type. The first seven kinds map
// one-to-one onto the paper's seven §III-B event types; the remainder
// expose the engine's slot-allocation and shuffle-patching internals.
type Kind uint8

const (
	// The paper's seven event types (§III-B). Task "start/finish" are
	// the engine's task arrival/departure events.
	KindJobArrival Kind = iota
	KindJobDeparture
	KindMapTaskStart
	KindMapTaskFinish
	KindReduceTaskStart
	KindReduceTaskFinish
	KindMapStageComplete

	// Engine internals beyond the paper's taxonomy.
	KindMapSlotAlloc      // policy granted a map slot to a job
	KindMapSlotRelease    // a map slot became free again
	KindReduceSlotAlloc   // policy granted a reduce slot to a job
	KindReduceSlotRelease // a reduce slot became free again
	KindPreempt           // a running map task was killed (PreemptMapTasks)
	KindFillerPatch       // a first-wave filler reduce got its real end time

	// KindCount bounds the Kind space for per-kind counter arrays.
	KindCount
)

var kindNames = [KindCount]string{
	"job-arrival", "job-departure",
	"map-task-start", "map-task-finish",
	"reduce-task-start", "reduce-task-finish",
	"map-stage-complete",
	"map-slot-alloc", "map-slot-release",
	"reduce-slot-alloc", "reduce-slot-release",
	"preempt", "filler-patch",
}

// String returns the stable lowercase name of the kind.
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observed engine decision. Events are passed by value —
// emitting one allocates nothing.
type Event struct {
	// Time is the simulated time the event was handled.
	Time float64
	Kind Kind
	// JobID identifies the job the event concerns (for KindPreempt,
	// the victim whose task was killed).
	JobID int
	// Task is the task index for task-scoped kinds (task start/finish,
	// preempt, filler-patch) and -1 otherwise.
	Task int
	// End is the planned finish time for task-start events — math.Inf(1)
	// for a first-wave filler reduce, whose real end is unknown until
	// the map stage completes — and the patched finish time for
	// KindFillerPatch. Zero for all other kinds.
	End float64
	// ShuffleEnd is the shuffle/reduce phase boundary for reduce-task
	// starts (math.Inf(1) for fillers) and for KindFillerPatch, where it
	// is mapStageEnd + firstShuffle (§III-B). Zero otherwise.
	ShuffleEnd float64
}

// Filler reports whether the event is a first-wave reduce start whose
// departure is a filler of unknown duration.
func (e Event) Filler() bool {
	return e.Kind == KindReduceTaskStart && math.IsInf(e.End, 1)
}

// Counters are the run-level totals delivered to Sink.RunEnd once a
// replay completes. The engine maintains them with plain integer
// arithmetic whether or not a sink is attached.
type Counters struct {
	// Events is the number of engine events processed (queue pops).
	Events uint64
	// HeapHighWater is the peak pending-event population of the event
	// queue — the quantity that bounds steady-state allocations under
	// the slab/free-list discipline (DESIGN.md §5).
	HeapHighWater int
	// Preemptions counts map tasks killed under PreemptMapTasks.
	Preemptions uint64
	// FillerPatches counts first-wave filler reduces whose departure
	// was patched at map-stage completion (§III-B shuffle modeling).
	FillerPatches uint64
	// MapSlotAllocs / ReduceSlotAllocs count slot grants.
	MapSlotAllocs    uint64
	ReduceSlotAllocs uint64
	// Jobs and Makespan summarize the replay outcome.
	Jobs     int
	Makespan float64
}

// Sink receives the engine's event stream. Implementations need not be
// safe for concurrent use: the engine calls Event and RunEnd from a
// single goroutine, and parallel runtimes give every engine its own
// sink (see SinkFactory). Event is on the simulation hot path —
// implementations should avoid per-event allocation where practical.
type Sink interface {
	// Event delivers one engine event, in handled order.
	Event(ev Event)
	// RunEnd delivers the run-level counters after the last event.
	RunEnd(c Counters)
}

// SinkFactory builds one sink per engine. Parallel entry points
// (CapacitySweep, ReplayBatch) call it once per concurrent run from the
// worker goroutine, so the factory itself must be safe for concurrent
// calls, while the sinks it returns need not be.
type SinkFactory func() Sink

// RecordSink captures the full event stream and final counters in
// memory — the reference sink for tests, golden files, and ad-hoc
// analysis.
type RecordSink struct {
	Events   []Event
	Counters Counters
	// Ended is set once RunEnd has been delivered.
	Ended bool
}

// Event appends ev to the record.
func (r *RecordSink) Event(ev Event) { r.Events = append(r.Events, ev) }

// RunEnd stores the run counters.
func (r *RecordSink) RunEnd(c Counters) { r.Counters, r.Ended = c, true }

// DepthSampler is an optional Sink extension: the engine periodically
// (every few hundred handled events) reports the pending-event-queue
// depth to sinks that implement it, so queue pressure over time is
// observable as a distribution, not just the final high-water mark.
// Like Event, SampleDepth is called from the engine's single goroutine.
type DepthSampler interface {
	// SampleDepth reports the event queue's pending population at
	// simulated time now.
	SampleDepth(now float64, depth int)
}

// ProgressSampler is an optional Sink extension: the engine
// periodically (on the same macro-step cadence as DepthSampler)
// reports replay progress — simulated time, events handled so far, and
// jobs departed out of the total — to sinks that implement it. This is
// the run registry's intra-replay progress feed: a single long replay
// surfaces live percent-complete without any per-event work. Like
// Event, SampleProgress is called from the engine's single goroutine.
type ProgressSampler interface {
	// SampleProgress reports replay progress at simulated time now.
	SampleProgress(now float64, events uint64, jobsDone, jobsTotal int)
}

// teeSink fans one engine's stream out to several sinks in order.
type teeSink struct{ sinks []Sink }

func (t teeSink) Event(ev Event) {
	for _, s := range t.sinks {
		s.Event(ev)
	}
}

func (t teeSink) RunEnd(c Counters) {
	for _, s := range t.sinks {
		s.RunEnd(c)
	}
}

// depthTeeSink is the tee variant returned when at least one member
// samples queue depth; kept separate so a depth-blind tee doesn't
// satisfy DepthSampler vacuously.
type depthTeeSink struct {
	teeSink
	samplers []DepthSampler
}

func (t depthTeeSink) SampleDepth(now float64, depth int) {
	for _, s := range t.samplers {
		s.SampleDepth(now, depth)
	}
}

// progressTeeSink is the tee variant for members that sample progress
// but not depth; like depthTeeSink it exists so a progress-blind tee
// doesn't satisfy ProgressSampler vacuously.
type progressTeeSink struct {
	teeSink
	progress []ProgressSampler
}

func (t progressTeeSink) SampleProgress(now float64, events uint64, jobsDone, jobsTotal int) {
	for _, s := range t.progress {
		s.SampleProgress(now, events, jobsDone, jobsTotal)
	}
}

// fullTeeSink samples both depth and progress.
type fullTeeSink struct {
	depthTeeSink
	progress []ProgressSampler
}

func (t fullTeeSink) SampleProgress(now float64, events uint64, jobsDone, jobsTotal int) {
	for _, s := range t.progress {
		s.SampleProgress(now, events, jobsDone, jobsTotal)
	}
}

// Tee combines sinks into one that forwards every event and RunEnd to
// each, in argument order. Nil sinks are skipped; Tee() returns nil.
// If any member implements DepthSampler or ProgressSampler, so does
// the combined sink — the samplers are resolved once here, not per
// call.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	var samplers []DepthSampler
	var progress []ProgressSampler
	for _, s := range live {
		if ds, ok := s.(DepthSampler); ok {
			samplers = append(samplers, ds)
		}
		if ps, ok := s.(ProgressSampler); ok {
			progress = append(progress, ps)
		}
	}
	tee := teeSink{sinks: live}
	switch {
	case len(samplers) > 0 && len(progress) > 0:
		return fullTeeSink{depthTeeSink{tee, samplers}, progress}
	case len(samplers) > 0:
		return depthTeeSink{tee, samplers}
	case len(progress) > 0:
		return progressTeeSink{tee, progress}
	}
	return tee
}
