package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeHistory serializes recs as a BENCH_history.jsonl under t's temp
// dir and returns its path.
func writeHistory(t *testing.T, recs []HistoryRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	for _, r := range recs {
		if err := AppendHistory(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// steady builds n healthy records with stable metrics, versioned v0..vn-1.
func steady(n int) []HistoryRecord {
	recs := make([]HistoryRecord, n)
	for i := range recs {
		recs[i] = HistoryRecord{
			Time:    fmt.Sprintf("2026-08-0%dT00:00:00Z", i%9+1),
			Mode:    "guard",
			Pass:    true,
			Version: fmt.Sprintf("v%d", i),

			EventsPerSec: 1_000_000,
			AllocsPerOp:  816,
			BytesPerOp:   90_000,
		}
	}
	return recs
}

func TestWatchCleanHistory(t *testing.T) {
	path := writeHistory(t, steady(8))
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("clean history flagged: %+v", rep.Regressions)
	}
	if rep.Records != 8 || !strings.Contains(rep.Summary, "OK") {
		t.Fatalf("report = %+v", rep)
	}
}

func TestWatchFlagsThroughputDrop(t *testing.T) {
	recs := steady(8)
	// Newest run: throughput down 20%, allocs unchanged.
	recs[7].EventsPerSec = 800_000
	path := writeHistory(t, recs)
	rep, err := Watch(path, 5, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want exactly the throughput drop", rep.Regressions)
	}
	r := rep.Regressions[0]
	if r.Metric != "events_per_sec" || r.Median != 1_000_000 || r.Latest != 800_000 {
		t.Fatalf("regression = %+v", r)
	}
	if r.Delta > -0.19 || r.Delta < -0.21 {
		t.Fatalf("delta = %v, want ~-0.20", r.Delta)
	}
	// The range pins the newest still-good prior run to the newest run.
	if r.LastGood != "v6" || r.FirstBad != "v7" {
		t.Fatalf("range = %s..%s, want v6..v7", r.LastGood, r.FirstBad)
	}
	if !strings.Contains(rep.Summary, "events_per_sec dropped 20.0%") {
		t.Fatalf("summary = %q", rep.Summary)
	}
}

func TestWatchDirectionAware(t *testing.T) {
	recs := steady(8)
	// Allocs are lower-better: a 50% RISE must flag, and a drop must not.
	recs[7].AllocsPerOp = 1224
	recs[7].BytesPerOp = 45_000 // improvement, not a regression
	path := writeHistory(t, recs)
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "allocs_per_op" {
		t.Fatalf("regressions = %+v, want only allocs_per_op", rep.Regressions)
	}
	if rep.Regressions[0].Delta < 0.49 || rep.Regressions[0].Delta > 0.51 {
		t.Fatalf("delta = %v, want ~+0.50", rep.Regressions[0].Delta)
	}
}

func TestWatchRollingWindowForgetsOldEra(t *testing.T) {
	// Ten old fast records, then six records settled at half speed: the
	// 5-run window sees only the new era, so the newest record compares
	// against its own plateau, not the ancient one. A deliberate,
	// baseline-rewritten slowdown stops alerting once the window rolls.
	recs := steady(16)
	for i := 10; i < 16; i++ {
		recs[i].EventsPerSec = 500_000
	}
	path := writeHistory(t, recs)
	rep, err := Watch(path, 5, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("settled plateau still flagged: %+v", rep.Regressions)
	}
}

func TestWatchSkipsUnmeasuredMetrics(t *testing.T) {
	// Old records lack the flight metrics entirely; the newest measures
	// them for the first time. No prior points -> nothing to compare,
	// and zero-valued history fields must not read as "regressed from 0".
	recs := steady(6)
	recs[5].FlightEventsPerSec = 900_000
	path := writeHistory(t, recs)
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("first measurement flagged: %+v", rep.Regressions)
	}
}

func TestWatchSparseSeriesUsesMeasuredPointsOnly(t *testing.T) {
	// flight_events_per_sec measured on alternating runs only: the
	// median must be fit over the measured points, and a 40% drop on the
	// newest still flags with the range naming measured runs.
	recs := steady(9)
	for i := 0; i < 8; i += 2 {
		recs[i].FlightEventsPerSec = 1_000_000
	}
	recs[8].FlightEventsPerSec = 600_000
	path := writeHistory(t, recs)
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "flight_events_per_sec" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if got := rep.Regressions[0].LastGood; got != "v6" {
		t.Fatalf("last good = %s, want v6 (newest measured prior run)", got)
	}
}

func TestWatchShortAndMissingHistory(t *testing.T) {
	// One record: nothing to compare, no error.
	path := writeHistory(t, steady(1))
	rep, err := Watch(path, 0, 0)
	if err != nil || len(rep.Regressions) != 0 {
		t.Fatalf("single record: rep=%+v err=%v", rep, err)
	}
	// Missing file: an error (CI must notice a vanished log).
	if _, err := Watch(filepath.Join(t.TempDir(), "absent.jsonl"), 0, 0); err == nil {
		t.Fatal("missing history did not error")
	}
}

func TestWatchSkipsCorruptLines(t *testing.T) {
	recs := steady(6)
	path := writeHistory(t, recs)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A half-written trailing line, as a crashed run would leave.
	if _, err := f.WriteString(`{"time":"2026-08-08T`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 6 {
		t.Fatalf("records = %d, want 6 (corrupt line skipped)", rep.Records)
	}
}

func TestWatchFallsBackToTimestampID(t *testing.T) {
	// Records predating version stamping identify by timestamp.
	recs := steady(6)
	for i := range recs {
		recs[i].Version = ""
	}
	recs[5].EventsPerSec = 500_000
	path := writeHistory(t, recs)
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if !strings.HasPrefix(rep.Regressions[0].FirstBad, "2026-08-") {
		t.Fatalf("first bad = %q, want timestamp fallback", rep.Regressions[0].FirstBad)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %v", got)
	}
}

func TestWatchAbsoluteMetricsStayOnHost(t *testing.T) {
	fast := &Host{CPUModel: "fast", NumCPU: 1, GoMaxProcs: 1, GoVersion: "go1.24.0"}
	slow := &Host{CPUModel: "slow", NumCPU: 2, GoMaxProcs: 2, GoVersion: "go1.24.0"}
	// Six runs on a fast host, then three on a slow one at half the
	// speed: cross-host, the newest run's events/sec and fork time look
	// 50% and 100% worse; against its own host they are steady. Its
	// allocations and branch speedup, host-independent, still compare
	// against every prior run, and its alloc rise must flag.
	recs := steady(9)
	for i := range recs {
		recs[i].Host = fast
		recs[i].ForkNsPerOp = 2000
		recs[i].BranchSpeedup = 5
		if i >= 6 {
			recs[i].Host = slow
			recs[i].EventsPerSec = 500_000
			recs[i].ForkNsPerOp = 4000
		}
	}
	recs[8].AllocsPerOp = 1224
	path := writeHistory(t, recs)
	rep, err := Watch(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "allocs_per_op" || rep.Regressions[0].Window != 5 {
		t.Fatalf("regressions = %+v, want only allocs_per_op over a 5-run cross-host window", rep.Regressions)
	}

	// A slowdown on the slow host itself still flags, with its range
	// named from that host's runs only.
	recs[8].AllocsPerOp = 816
	recs[8].EventsPerSec = 300_000
	rep, err = Watch(writeHistory(t, recs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want only events_per_sec", rep.Regressions)
	}
	if r := rep.Regressions[0]; r.Metric != "events_per_sec" || r.Median != 500_000 || r.Window != 2 || r.LastGood != "v7" {
		t.Fatalf("regression = %+v, want a 2-run slow-host median of 500000 from v7", r)
	}

	// The first run on a new host has no same-host history: its absolute
	// speeds are skipped and the summary says so.
	recs = append(recs[:6], recs[6])
	recs[6].EventsPerSec = 100_000
	rep, err = Watch(writeHistory(t, recs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("first run on a new host flagged: %+v", rep.Regressions)
	}
	if !strings.Contains(rep.Summary, "2 absolute metric(s) not compared") {
		t.Fatalf("summary = %q", rep.Summary)
	}
}
