package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// validTemplate builds a small consistent template for tests.
func validTemplate() *Template {
	return &Template{
		AppName:         "WordCount",
		Dataset:         "32GB",
		NumMaps:         4,
		NumReduces:      2,
		MapDurations:    []float64{10, 12, 11, 13},
		FirstShuffle:    []float64{5, 6},
		TypicalShuffle:  []float64{3, 4},
		ReduceDurations: []float64{2, 2.5},
	}
}

func TestTemplateValidateOK(t *testing.T) {
	if err := validTemplate().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateValidateErrors(t *testing.T) {
	cases := map[string]func(*Template){
		"zero maps":          func(tp *Template) { tp.NumMaps = 0 },
		"negative reduces":   func(tp *Template) { tp.NumReduces = -1 },
		"map count mismatch": func(tp *Template) { tp.MapDurations = tp.MapDurations[:2] },
		"reduce mismatch":    func(tp *Template) { tp.ReduceDurations = tp.ReduceDurations[:1] },
		"no typical shuffle": func(tp *Template) { tp.TypicalShuffle = nil },
		"no first shuffle":   func(tp *Template) { tp.FirstShuffle = nil },
		"negative duration":  func(tp *Template) { tp.MapDurations[0] = -1 },
		"NaN duration":       func(tp *Template) { tp.ReduceDurations[0] = math.NaN() },
		"infinite duration":  func(tp *Template) { tp.TypicalShuffle[0] = math.Inf(1) },
	}
	for name, mutate := range cases {
		tp := validTemplate()
		mutate(tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestMapOnlyTemplateValid(t *testing.T) {
	tp := &Template{AppName: "maponly", NumMaps: 2, MapDurations: []float64{1, 2}}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateProfile(t *testing.T) {
	p := validTemplate().Profile()
	if p.NumMaps != 4 || p.NumReduces != 2 {
		t.Fatalf("counts: %+v", p)
	}
	if p.Map.Avg != 11.5 || p.Map.Max != 13 {
		t.Fatalf("map profile: %+v", p.Map)
	}
	if p.TypicalShuffle.Avg != 3.5 || p.TypicalShuffle.Max != 4 {
		t.Fatalf("shuffle profile: %+v", p.TypicalShuffle)
	}
	if p.Reduce.Avg != 2.25 || p.Reduce.Max != 2.5 {
		t.Fatalf("reduce profile: %+v", p.Reduce)
	}
}

func TestDurationAccessorsCycle(t *testing.T) {
	tp := validTemplate()
	if tp.MapDuration(0) != 10 || tp.MapDuration(4) != 10 || tp.MapDuration(5) != 12 {
		t.Fatal("map duration cycling broken")
	}
	if tp.ReduceDuration(3) != 2.5 {
		t.Fatal("reduce duration cycling broken")
	}
	empty := &Template{}
	if empty.MapDuration(3) != 0 || empty.FirstShuffleDuration(0) != 0 {
		t.Fatal("empty template should yield zero durations")
	}
}

func TestTemplateCloneIsDeep(t *testing.T) {
	a := validTemplate()
	b := a.Clone()
	b.MapDurations[0] = 999
	if a.MapDurations[0] == 999 {
		t.Fatal("clone shares map durations")
	}
}

func TestJobDeadlineHelpers(t *testing.T) {
	j := &Job{Arrival: 10, Deadline: 30}
	if !j.HasDeadline() || j.RelativeDeadline() != 20 {
		t.Fatalf("deadline helpers: %v %v", j.HasDeadline(), j.RelativeDeadline())
	}
	nd := &Job{Arrival: 10}
	if nd.HasDeadline() || !math.IsInf(nd.RelativeDeadline(), 1) {
		t.Fatal("no-deadline job helpers broken")
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Name: "t", Jobs: []*Job{
		{ID: 0, Arrival: 0, Template: validTemplate()},
		{ID: 1, Arrival: 5, Template: validTemplate()},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Trace{}).Validate(); err != ErrEmptyTrace {
		t.Fatalf("empty trace: %v", err)
	}

	dup := &Trace{Jobs: []*Job{
		{ID: 3, Template: validTemplate()},
		{ID: 3, Arrival: 1, Template: validTemplate()},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate IDs should fail")
	}

	bad := &Trace{Jobs: []*Job{{ID: 0, Arrival: 5, Deadline: 3, Template: validTemplate()}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("deadline before arrival should fail")
	}
	neg := &Trace{Jobs: []*Job{{ID: 0, Arrival: -2, Template: validTemplate()}}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative arrival should fail")
	}
	niltpl := &Trace{Jobs: []*Job{{ID: 0}}}
	if err := niltpl.Validate(); err == nil {
		t.Fatal("nil template should fail")
	}
}

func TestTraceNormalizeSortsAndIDs(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		{Arrival: 9, Template: validTemplate()},
		{Arrival: 1, Template: validTemplate()},
		{Arrival: 5, Template: validTemplate()},
	}}
	tr.Normalize()
	arr := []float64{1, 5, 9}
	for i, j := range tr.Jobs {
		if j.Arrival != arr[i] || j.ID != i {
			t.Fatalf("job %d: arrival %v id %d", i, j.Arrival, j.ID)
		}
		if j.Name != "WordCount" {
			t.Fatalf("name not defaulted: %q", j.Name)
		}
	}
}

func TestNormalizeIsStableProperty(t *testing.T) {
	// Jobs with equal arrivals must keep their relative order.
	prop := func(narrow []uint8) bool {
		tr := &Trace{}
		for i, a := range narrow {
			tr.Jobs = append(tr.Jobs, &Job{
				Name:     "x",
				Arrival:  float64(a % 4), // many collisions
				Template: validTemplate(),
			})
			tr.Jobs[i].Template.Dataset = string(rune('a' + i%26))
		}
		orig := make([]*Job, len(tr.Jobs))
		copy(orig, tr.Jobs)
		tr.Normalize()
		// check stability: among equal arrivals, original order preserved
		for i := 1; i < len(tr.Jobs); i++ {
			if tr.Jobs[i-1].Arrival > tr.Jobs[i].Arrival {
				return false
			}
			if tr.Jobs[i-1].Arrival == tr.Jobs[i].Arrival {
				if indexOf(orig, tr.Jobs[i-1]) > indexOf(orig, tr.Jobs[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	// A large input in reversed arrival order with heavy ties: a
	// quadratic sort would take minutes here.
	const n, tie = 200_000, 64
	tpl := validTemplate()
	tr := &Trace{}
	orig := make(map[*Job]int, n)
	for i := 0; i < n; i++ {
		j := &Job{Name: "x", Arrival: float64((n - 1 - i) / tie), Template: tpl}
		tr.Jobs = append(tr.Jobs, j)
		orig[j] = i
	}
	tr.Normalize()
	for i := 1; i < n; i++ {
		a, b := tr.Jobs[i-1], tr.Jobs[i]
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && orig[a] > orig[b]) {
			t.Fatalf("large input: jobs %d/%d out of stable arrival order", i-1, i)
		}
	}
}

func indexOf(js []*Job, j *Job) int {
	for i, x := range js {
		if x == j {
			return i
		}
	}
	return -1
}

func TestTotalTasksAndSerialRuntime(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		{ID: 0, Template: validTemplate()},
		{ID: 1, Arrival: 1, Template: validTemplate()},
	}}
	m, r := tr.TotalTasks()
	if m != 8 || r != 4 {
		t.Fatalf("tasks = %d/%d", m, r)
	}
	// per template: maps 46 + reduces 4.5 + typshuffle 7 = 57.5
	if got := tr.SerialRuntime(); got != 115 {
		t.Fatalf("serial runtime = %v", got)
	}
}

func TestTraceCloneIsDeep(t *testing.T) {
	tr := &Trace{Name: "t", Jobs: []*Job{{ID: 0, Arrival: 3, Template: validTemplate()}}}
	c := tr.Clone()
	c.Jobs[0].Arrival = 99
	c.Jobs[0].Template.MapDurations[0] = 12345
	if tr.Jobs[0].Arrival == 99 || tr.Jobs[0].Template.MapDurations[0] == 12345 {
		t.Fatal("clone shares state with original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := &Trace{Name: "rt", Jobs: []*Job{
		{ID: 0, Arrival: 0, Deadline: 100, Template: validTemplate()},
		{ID: 1, Arrival: 2.5, Template: validTemplate()},
	}}
	data, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 || back.Jobs[0].Deadline != 100 ||
		back.Jobs[1].Arrival != 2.5 ||
		back.Jobs[0].Template.MapDurations[2] != 11 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("bad JSON should fail")
	}
	if _, err := Decode([]byte(`{"jobs":[]}`)); err == nil {
		t.Fatal("empty trace should fail validation")
	}
}

func TestScaleTemplateUp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := validTemplate()
	out, err := ScaleTemplate(tp, 4, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumMaps != 16 {
		t.Fatalf("scaled maps = %d, want 16", out.NumMaps)
	}
	if out.NumReduces != 2 {
		t.Fatalf("reduces should be unchanged: %d", out.NumReduces)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Map durations resampled from the original support.
	support := map[float64]bool{10: true, 11: true, 12: true, 13: true}
	for _, d := range out.MapDurations {
		if !support[d] {
			t.Fatalf("resampled duration %v not in original support", d)
		}
	}
	// Fixed reduce count => typical shuffle durations scale by factor.
	shSupport := map[float64]bool{12: true, 16: true}
	for _, d := range out.TypicalShuffle {
		if !shSupport[d] {
			t.Fatalf("shuffle %v not scaled by 4 from {3,4}", d)
		}
	}
}

func TestScaleTemplateWithReduceScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	out, err := ScaleTemplate(validTemplate(), 3, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumReduces != 6 {
		t.Fatalf("scaled reduces = %d, want 6", out.NumReduces)
	}
	// per-reduce volume unchanged => shuffle durations stay in support
	shSupport := map[float64]bool{3: true, 4: true}
	for _, d := range out.TypicalShuffle {
		if !shSupport[d] {
			t.Fatalf("shuffle %v should be unscaled", d)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleTemplateDown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out, err := ScaleTemplate(validTemplate(), 0.1, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumMaps < 1 {
		t.Fatal("scaling down must keep at least one map")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleTemplateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := ScaleTemplate(validTemplate(), 0, false, rng); err == nil {
		t.Fatal("zero factor should fail")
	}
	bad := validTemplate()
	bad.NumMaps = 0
	if _, err := ScaleTemplate(bad, 2, false, rng); err == nil {
		t.Fatal("invalid input should fail")
	}
}

func TestScalePreservesDistributionShape(t *testing.T) {
	// Scaling should preserve the duration distribution (bootstrap).
	rng := rand.New(rand.NewSource(5))
	tp := &Template{
		AppName: "big", NumMaps: 500, NumReduces: 0,
		MapDurations: make([]float64, 500),
	}
	for i := range tp.MapDurations {
		tp.MapDurations[i] = 10 + float64(i%7)
	}
	out, err := ScaleTemplate(tp, 2, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	inMean, outMean := mean(tp.MapDurations), mean(out.MapDurations)
	if math.Abs(inMean-outMean)/inMean > 0.05 {
		t.Fatalf("bootstrap changed the mean too much: %v vs %v", inMean, outMean)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
