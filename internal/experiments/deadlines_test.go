package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"simmr/internal/rcache"
	"simmr/internal/telemetry"
)

// quickSweep shrinks the paper's 400-repetition sweep for test runtime.
func quickSweep(base DeadlineSweepConfig) DeadlineSweepConfig {
	base.InterArrivalMeans = []float64{10, 1000}
	base.Repetitions = 3
	return base
}

func TestFigure7Shape(t *testing.T) {
	cfg := quickSweep(DefaultFigure7Config())
	cfg.DeadlineFactors = []float64{1, 3}
	r, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}

	byKey := map[[2]float64]DeadlineSweepPoint{}
	for _, p := range r.Points {
		byKey[[2]float64{p.DeadlineFactor, p.InterArrivalMean}] = p
	}

	// df=1: the policies coincide (MinEDF must allocate the maximum to
	// meet T_J exactly), so utilities should be close.
	p1 := byKey[[2]float64{1, 10}]
	if rel := relDiff(p1.MinEDF, p1.MaxEDF); rel > 0.25 {
		t.Errorf("df=1: policies should roughly coincide: MinEDF %.2f vs MaxEDF %.2f",
			p1.MinEDF, p1.MaxEDF)
	}

	// df=3: MinEDF wins (paper's headline result).
	p3 := byKey[[2]float64{3, 10}]
	if p3.MinEDF > p3.MaxEDF {
		t.Errorf("df=3: MinEDF (%.2f) should beat MaxEDF (%.2f)", p3.MinEDF, p3.MaxEDF)
	}
	if !r.MinEDFWinsAtRelaxedDeadlines() {
		t.Error("MinEDF should win aggregated over df>1 points")
	}

	// Utility decreases as arrivals spread out.
	for _, df := range []float64{1.0, 3.0} {
		dense := byKey[[2]float64{df, 10}]
		sparse := byKey[[2]float64{df, 1000}]
		if sparse.MaxEDF > dense.MaxEDF {
			t.Errorf("df=%v: MaxEDF utility should fall with sparser arrivals: %.2f -> %.2f",
				df, dense.MaxEDF, sparse.MaxEDF)
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deadline_factor") {
		t.Fatal("render missing header")
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := quickSweep(DefaultFigure8Config())
	cfg.DeadlineFactors = []float64{1.1, 2}
	cfg.JobsPerRun = 10
	r, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !r.MinEDFWinsAtRelaxedDeadlines() {
		var detail strings.Builder
		_ = r.Render(&detail)
		t.Errorf("MinEDF should win on the Facebook workload\n%s", detail.String())
	}
}

func TestDeadlineSweepValidation(t *testing.T) {
	bad := DefaultFigure7Config()
	bad.Repetitions = 0
	if _, err := Figure7(bad); err == nil {
		t.Fatal("zero repetitions should fail")
	}
	bad = DefaultFigure7Config()
	bad.DeadlineFactors = []float64{0.5}
	bad.Repetitions = 1
	bad.InterArrivalMeans = []float64{10}
	if _, err := Figure7(bad); err == nil {
		t.Fatal("df < 1 should fail")
	}
	bad = DefaultFigure7Config()
	bad.InterArrivalMeans = nil
	if _, err := Figure7(bad); err == nil {
		t.Fatal("empty axes should fail")
	}
}

// TestDeadlineSweepCacheIdentical runs Figure 7 twice against one
// result cache: the warm pass must serve every replay from the cache,
// reproduce the cold pass's points exactly, and leave the telemetry's
// expected-run count balanced against the replays that really ran.
func TestDeadlineSweepCacheIdentical(t *testing.T) {
	cfg := quickSweep(DefaultFigure7Config())
	cfg.DeadlineFactors = []float64{1, 3}
	cfg.Cache = rcache.New(rcache.Options{})
	cfg.Telemetry = telemetry.NewSimMetrics(0)
	cold, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replays := uint64(len(cfg.DeadlineFactors) * len(cfg.InterArrivalMeans) * cfg.Repetitions * 2)
	if warm.CacheHits != replays {
		t.Fatalf("warm pass cache hits = %d, want %d", warm.CacheHits, replays)
	}
	if !reflect.DeepEqual(cold.Points, warm.Points) {
		t.Fatalf("warm points diverged from cold:\n%+v\n%+v", cold.Points, warm.Points)
	}
	v := cfg.Telemetry.ExpvarValue().(map[string]any)
	ran := replays - cold.CacheHits
	if v["runs_expected"].(int64) != int64(ran) || v["runs_finished"].(uint64) != ran || !v["done"].(bool) {
		t.Fatalf("telemetry run accounting = expected %v finished %v done %v, want %d replays done",
			v["runs_expected"], v["runs_finished"], v["done"], ran)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / m
}
