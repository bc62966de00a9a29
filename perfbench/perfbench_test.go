package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"simmr/internal/attr"
	"simmr/internal/obs"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/telemetry"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSelfTest runs every workload once at tiny size, untraced and
// traced, through the command's own entry point: each must be correct
// (every digest equal to the reference and to the committed one) and
// emit exactly the metrics BENCHMARK.json declares.
func TestSelfTest(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "1", "--seconds", "0.001",
					"--trace", trace, "--size", "tiny", "--dir", t.TempDir()}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("exit %d: %s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; stderr %s", res, errs.String())
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
			})
		}
	}
}

// TestCommittedDigests checks that every workload at both sizes has a
// committed default-seed digest, so the pinned gate is never vacuous.
func TestCommittedDigests(t *testing.T) {
	for name := range sizes {
		for _, w := range workloads {
			d, err := pinnedDigest(defaultSeed, name, w.name)
			if err != nil || len(d) != 32 {
				t.Errorf("%s/%s: committed digest %q, %v", name, w.name, d, err)
			}
		}
	}
}

// TestTracedMatchesUntraced checks that tracing leaves the program
// unchanged: a traced operation returns the same digest as an untraced
// one, and the sweep's result cache sees the same lookups and hits.
func TestTracedMatchesUntraced(t *testing.T) {
	sz := sizes["tiny"]
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(sz, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			_, plain, err := b.op(nil)
			if err != nil {
				t.Fatal(err)
			}
			var plainStats, tracedStats any
			if s, ok := b.(*sweep); ok {
				plainStats = s.last
			}
			tr := newOpTrace()
			_, traced, err := b.op(tr)
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := b.(*sweep); ok {
				tracedStats = s.last
				if s.last.Hits == 0 {
					t.Error("tiny sweep revisit got no cache hits")
				}
			}
			if plain != b.want() || traced != plain {
				t.Errorf("digests: untraced %s, traced %s, reference %s", plain, traced, b.want())
			}
			if plainStats != tracedStats {
				t.Errorf("cache stats: untraced %+v, traced %+v", plainStats, tracedStats)
			}
			if v := tr.values(); v["sched.calls"] == 0 {
				t.Error("traced operation timed no policy calls")
			}
		})
	}
}

// TestPolicyDecoratorInterfaces checks the timing decorator exposes
// exactly the wrapped policy's optional interfaces and fingerprint.
func TestPolicyDecoratorInterfaces(t *testing.T) {
	policies := []sched.Policy{
		sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}, sched.Fair{},
		sched.Capacity{Shares: []float64{0.5, 0.5}},
		sched.NewDynamicPriority(nil, nil),
	}
	for _, p := range policies[:5] {
		policies = append(policies, sched.Indexed(p))
	}
	for _, p := range policies {
		w := timePolicy(p, &calls{})
		_, b0 := p.(sched.BatchPolicy)
		_, b1 := w.(sched.BatchPolicy)
		_, a0 := p.(sched.ArrivalAware)
		_, a1 := w.(sched.ArrivalAware)
		fp0, ok0 := sched.FingerprintOf(p)
		fp1, ok1 := sched.FingerprintOf(w)
		_, f0 := p.(sched.Fingerprinter)
		_, f1 := w.(sched.Fingerprinter)
		if b0 != b1 || a0 != a1 || f0 != f1 || fp0 != fp1 || ok0 != ok1 || w.Name() != p.Name() {
			t.Errorf("%T: batch %v→%v arrival %v→%v fingerprinter %v→%v fingerprint %x,%v→%x,%v",
				p, b0, b1, a0, a1, f0, f1, fp0, ok0, fp1, ok1)
		}
	}
}

// TestSinkDecoratorInterfaces checks the timing decorator exposes
// DepthSampler and ProgressSampler exactly when the wrapped sink does.
func TestSinkDecoratorInterfaces(t *testing.T) {
	tel := telemetry.NewSimMetrics(1)
	sinks := []obs.Sink{
		attr.NewSink(attr.Options{}),
		&obs.RecordSink{},
		tel.EngineSink(),
		runs.New(1).Begin(runs.Meta{}).EngineHook(),
		obs.Tee(tel.EngineSink(), runs.New(1).Begin(runs.Meta{}).EngineHook()),
	}
	for _, s := range sinks {
		w := timeSink(s, &calls{})
		_, d0 := s.(obs.DepthSampler)
		_, d1 := w.(obs.DepthSampler)
		_, p0 := s.(obs.ProgressSampler)
		_, p1 := w.(obs.ProgressSampler)
		if d0 != d1 || p0 != p1 {
			t.Errorf("%T: depth %v→%v progress %v→%v", s, d0, d1, p0, p1)
		}
	}
}
