// Package trace defines the replayable workload representation at the
// heart of SimMR: the job template (§III-A of the paper), jobs with
// arrival times and deadlines, whole workload traces, and a persistent
// trace database.
//
// A job template summarizes a job's essential performance
// characteristics during one execution in the cluster:
//
//	(N_M, N_R)                    number of map and reduce tasks
//	MapDurations      (M^J)       N_M map-task durations
//	FirstShuffle      (Sh^J_1)    durations of the non-overlapping part
//	                              of first-wave shuffles
//	TypicalShuffle    (Sh^J_typ)  durations of typical (later-wave) shuffles
//	ReduceDurations   (R^J)       N_R reduce-phase durations
//
// Durations are seconds of simulated time.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
)

// Template is the paper's job template: the per-phase task duration
// arrays collected by MRProfiler or generated synthetically.
type Template struct {
	// AppName identifies the application this template profiles
	// (e.g. "WordCount"); used for trace-database lookup.
	AppName string `json:"app"`
	// Dataset labels the input dataset of the profiled run (e.g. "32GB").
	Dataset string `json:"dataset,omitempty"`

	NumMaps    int `json:"num_maps"`
	NumReduces int `json:"num_reduces"`

	MapDurations    []float64 `json:"map_durations"`
	FirstShuffle    []float64 `json:"first_shuffle"`
	TypicalShuffle  []float64 `json:"typical_shuffle"`
	ReduceDurations []float64 `json:"reduce_durations"`

	// Counters holds optional job-level aggregate counters extracted
	// from the logs (e.g. HDFS_BYTES_READ summed over map tasks) — the
	// "easily extendable" metrics of §IV-A. Replay ignores them; they
	// exist for workload analysis and trace scaling.
	Counters map[string]float64 `json:"counters,omitempty"`

	// profile caches the computed Profile. Engines derive the profile of
	// every job on construction, so without the cache a template shared
	// by a 400-cell sweep pays the derivation (formerly including a
	// quantile sort the profile doesn't even use) once per cell instead
	// of once. Atomic because concurrent engines share templates
	// read-only; racing writers store identical values. Callers must not
	// mutate duration slices after the first Profile call.
	profile atomic.Pointer[Profile]

	// digest caches the template's full-content fold for
	// Trace.ContentHash, which must walk every duration entry — without
	// the memo a per-replay cache-key computation would rescan each
	// template's columns on every lookup and erase the warm-hit speedup
	// the cache exists for. Same contract and concurrency story as the
	// profile cache above: duration slices are immutable once hashed
	// (what-if scaling builds new Templates; transforms touch only
	// Job-level fields), and racing writers store identical values.
	digest atomic.Pointer[uint64]
}

// Validate checks the template's internal consistency.
func (t *Template) Validate() error {
	switch {
	case t.NumMaps <= 0:
		return fmt.Errorf("trace: template %q: NumMaps = %d, need > 0", t.AppName, t.NumMaps)
	case t.NumReduces < 0:
		return fmt.Errorf("trace: template %q: NumReduces = %d, need >= 0", t.AppName, t.NumReduces)
	case len(t.MapDurations) != t.NumMaps:
		return fmt.Errorf("trace: template %q: %d map durations for %d maps", t.AppName, len(t.MapDurations), t.NumMaps)
	case t.NumReduces > 0 && len(t.ReduceDurations) != t.NumReduces:
		return fmt.Errorf("trace: template %q: %d reduce durations for %d reduces", t.AppName, len(t.ReduceDurations), t.NumReduces)
	case t.NumReduces > 0 && len(t.TypicalShuffle) == 0:
		return fmt.Errorf("trace: template %q: reduces present but no typical shuffle durations", t.AppName)
	case t.NumReduces > 0 && len(t.FirstShuffle) == 0:
		return fmt.Errorf("trace: template %q: reduces present but no first shuffle durations", t.AppName)
	}
	for phase, ds := range map[string][]float64{
		"map": t.MapDurations, "first-shuffle": t.FirstShuffle,
		"typical-shuffle": t.TypicalShuffle, "reduce": t.ReduceDurations,
	} {
		for i, d := range ds {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("trace: template %q: %s duration %d invalid: %v", t.AppName, phase, i, d)
			}
		}
	}
	return nil
}

// PhaseProfile holds the average and maximum task duration of one
// execution phase — the "performance invariants" the ARIA bounds model
// consumes (§V-A).
type PhaseProfile struct {
	Avg, Max float64
}

// Profile is the compact job profile derived from a template.
type Profile struct {
	NumMaps, NumReduces int
	Map                 PhaseProfile
	FirstShuffle        PhaseProfile
	TypicalShuffle      PhaseProfile
	Reduce              PhaseProfile
}

// Profile returns the compact per-phase profile of the template,
// computed on first call and cached (safe for concurrent use).
func (t *Template) Profile() Profile {
	if p := t.profile.Load(); p != nil {
		return *p
	}
	p := Profile{
		NumMaps:    t.NumMaps,
		NumReduces: t.NumReduces,
		Map:        phaseProfile(t.MapDurations),
		// Zero-length phases keep the zero PhaseProfile.
		FirstShuffle:   phaseProfile(t.FirstShuffle),
		TypicalShuffle: phaseProfile(t.TypicalShuffle),
		Reduce:         phaseProfile(t.ReduceDurations),
	}
	t.profile.Store(&p)
	return p
}

// phaseProfile computes the (avg, max) invariants of one phase in a
// single pass — no sort, no intermediate copy.
func phaseProfile(ds []float64) PhaseProfile {
	if len(ds) == 0 {
		return PhaseProfile{}
	}
	var sum float64
	max := math.Inf(-1)
	for _, d := range ds {
		sum += d
		if d > max {
			max = d
		}
	}
	return PhaseProfile{Avg: sum / float64(len(ds)), Max: max}
}

// MapDuration returns the duration of the i-th map task, cycling if the
// engine asks for more tasks than the template recorded (never happens
// for well-formed traces, but synthetic traces may be re-scaled).
func (t *Template) MapDuration(i int) float64 {
	return cycle(t.MapDurations, i)
}

// FirstShuffleDuration returns the non-overlapping first-wave shuffle
// duration for reduce slot-index i.
func (t *Template) FirstShuffleDuration(i int) float64 {
	return cycle(t.FirstShuffle, i)
}

// TypicalShuffleDuration returns the typical shuffle duration for reduce
// index i.
func (t *Template) TypicalShuffleDuration(i int) float64 {
	return cycle(t.TypicalShuffle, i)
}

// ReduceDuration returns the reduce-phase duration for reduce index i.
func (t *Template) ReduceDuration(i int) float64 {
	return cycle(t.ReduceDurations, i)
}

func cycle(ds []float64, i int) float64 {
	if len(ds) == 0 {
		return 0
	}
	return ds[i%len(ds)]
}

// Clone returns a deep copy of the template. The profile cache is not
// carried over: clones are typically taken to mutate durations (e.g.
// ScaleTemplate), so the copy re-derives its profile on demand.
func (t *Template) Clone() *Template {
	c := &Template{
		AppName:         t.AppName,
		Dataset:         t.Dataset,
		NumMaps:         t.NumMaps,
		NumReduces:      t.NumReduces,
		MapDurations:    append([]float64(nil), t.MapDurations...),
		FirstShuffle:    append([]float64(nil), t.FirstShuffle...),
		TypicalShuffle:  append([]float64(nil), t.TypicalShuffle...),
		ReduceDurations: append([]float64(nil), t.ReduceDurations...),
	}
	if t.Counters != nil {
		c.Counters = make(map[string]float64, len(t.Counters))
		for k, v := range t.Counters {
			c.Counters[k] = v
		}
	}
	return c
}

// Job is one entry of a replayable trace: a template plus the job's
// arrival time and (optionally) a completion-time deadline for the
// deadline-driven schedulers.
type Job struct {
	// ID is unique within a trace; assigned by Trace.Normalize.
	ID int `json:"id"`
	// Name is a human-readable label (defaults to AppName).
	Name string `json:"name,omitempty"`
	// Arrival is the submission time in seconds since trace start.
	Arrival float64 `json:"arrival"`
	// Deadline is the absolute completion deadline in seconds since
	// trace start; 0 means "no deadline".
	Deadline float64 `json:"deadline,omitempty"`
	// Template carries the per-task durations to replay.
	Template *Template `json:"template"`
}

// HasDeadline reports whether the job carries a deadline.
func (j *Job) HasDeadline() bool { return j.Deadline > 0 }

// RelativeDeadline returns the deadline relative to arrival, or +Inf if
// the job has none.
func (j *Job) RelativeDeadline() float64 {
	if !j.HasDeadline() {
		return math.Inf(1)
	}
	return j.Deadline - j.Arrival
}

// Trace is a replayable MapReduce workload: an ordered set of jobs.
//
// A trace may be backed by external storage — an mmapped `.strc` file
// (internal/tracebin) whose arena the templates' duration slices alias
// zero-copy. The backing is transparent to every consumer (engine,
// schedulers, snapshot/fork, attribution all treat traces and
// templates as read-only), but it pins a resource: call Close when a
// backed trace is no longer needed, and never use it afterwards.
// Traces without a backing Close as a no-op.
type Trace struct {
	// Name labels the trace in the trace database.
	Name string `json:"name,omitempty"`
	Jobs []*Job `json:"jobs"`

	// backing pins the storage the job templates alias (nil for plain
	// heap traces). Clone never carries it: clones are deep copies.
	backing io.Closer

	// validated memoizes a successful Validate. Pooled engines
	// re-validate the shared trace on every Run, and on a large trace
	// the duplicate-ID map dominates the pooled replay's allocations —
	// with the memo, re-validating an unchanged trace is one atomic
	// load. Same staleness caveat as the profile cache below: mutating
	// jobs in place after a successful Validate is not re-checked;
	// Normalize (the documented mutation point) clears the memo.
	validated atomic.Bool

	// arrivals memoizes Arrivals; Arrivals checks it
	// against the jobs on every call, and Normalize clears it.
	arrivals atomic.Pointer[Arrivals]
}

// SetBacking attaches the storage this trace's templates alias (e.g. a
// tracebin.Store). Any previous backing is replaced, not closed.
func (tr *Trace) SetBacking(c io.Closer) { tr.backing = c }

// Backing returns the attached storage, or nil.
func (tr *Trace) Backing() io.Closer { return tr.backing }

// Close releases the trace's backing storage, if any. The trace (and
// every template loaded from it) must not be used afterwards.
func (tr *Trace) Close() error {
	if tr.backing == nil {
		return nil
	}
	c := tr.backing
	tr.backing = nil
	return c.Close()
}

// ErrEmptyTrace is returned when validating a trace with no jobs.
var ErrEmptyTrace = errors.New("trace: no jobs")

// Validate checks every job and the trace-level invariants. Template
// validation runs once per *unique* template, not once per job: a
// deduplicated million-job trace whose jobs share a few hundred
// templates validates in time proportional to the jobs plus the
// unique duration volume, never re-walking shared arrays.
//
// A successful Validate is memoized: pooled engines validate the shared
// trace on every Run, and the duplicate-ID map would otherwise dominate
// a warm replay's allocations. Mutating jobs in place afterwards is not
// re-checked; Normalize clears the memo.
func (tr *Trace) Validate() error {
	if tr.validated.Load() {
		return nil
	}
	if len(tr.Jobs) == 0 {
		return ErrEmptyTrace
	}
	seen := make(map[int]bool, len(tr.Jobs))
	validated := make(map[*Template]bool)
	for i, j := range tr.Jobs {
		if j == nil || j.Template == nil {
			return fmt.Errorf("trace %q: job %d is nil or has no template", tr.Name, i)
		}
		if j.Arrival < 0 || math.IsNaN(j.Arrival) {
			return fmt.Errorf("trace %q: job %d: invalid arrival %v", tr.Name, i, j.Arrival)
		}
		if j.Deadline < 0 || (j.Deadline > 0 && j.Deadline < j.Arrival) {
			return fmt.Errorf("trace %q: job %d: deadline %v before arrival %v", tr.Name, i, j.Deadline, j.Arrival)
		}
		if seen[j.ID] {
			return fmt.Errorf("trace %q: duplicate job ID %d", tr.Name, j.ID)
		}
		seen[j.ID] = true
		if !validated[j.Template] {
			if err := j.Template.Validate(); err != nil {
				return fmt.Errorf("trace %q: job %d: %w", tr.Name, i, err)
			}
			validated[j.Template] = true
		}
	}
	tr.validated.Store(true)
	return nil
}

// Normalize sorts jobs by arrival time (stable) and reassigns contiguous
// IDs in arrival order. Call before replaying a hand-assembled trace.
func (tr *Trace) Normalize() {
	tr.validated.Store(false)
	tr.arrivals.Store(nil)
	slices.SortStableFunc(tr.Jobs, func(a, b *Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for i, j := range tr.Jobs {
		j.ID = i
		if j.Name == "" && j.Template != nil {
			j.Name = j.Template.AppName
		}
	}
}

// TotalTasks returns the total number of map and reduce tasks across the
// trace — a proxy for simulation workload size.
func (tr *Trace) TotalTasks() (maps, reduces int) {
	for _, j := range tr.Jobs {
		maps += j.Template.NumMaps
		reduces += j.Template.NumReduces
	}
	return maps, reduces
}

// SerialRuntime returns the total task-seconds in the trace: how long
// the workload would take executed serially on one slot of each kind
// (the paper quotes "about a week (152 hours)" for its 1148-job trace).
// Shared templates are summed once and weighted by their job count, so
// deduplicated traces never re-walk shared duration arrays.
func (tr *Trace) SerialRuntime() float64 {
	sums := make(map[*Template]float64)
	var total float64
	for _, j := range tr.Jobs {
		if j == nil || j.Template == nil {
			continue
		}
		s, ok := sums[j.Template]
		if !ok {
			for _, d := range j.Template.MapDurations {
				s += d
			}
			for _, d := range j.Template.ReduceDurations {
				s += d
			}
			for _, d := range j.Template.TypicalShuffle {
				s += d
			}
			sums[j.Template] = s
		}
		total += s
	}
	return total
}

// Clone deep-copies the trace so a simulation run can mutate arrival
// times or deadlines without affecting the stored version.
func (tr *Trace) Clone() *Trace {
	c := &Trace{Name: tr.Name, Jobs: make([]*Job, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		cj := *j
		cj.Template = j.Template.Clone()
		c.Jobs[i] = &cj
	}
	return c
}
