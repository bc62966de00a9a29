package benchkit

import "testing"

func TestSameHost(t *testing.T) {
	here := Host{CPUModel: "Xeon", NumCPU: 2, GoMaxProcs: 2, GoVersion: "go1.22.0"}
	other := here
	other.CPUModel = "EPYC"
	newerGo := here
	newerGo.GoVersion = "go1.23.0"
	for _, tc := range []struct {
		name string
		base Metrics
		want bool
	}{
		{"fingerprint equal", Metrics{NumCPU: 2, GoMaxProcs: 2, Host: &here}, true},
		{"fingerprint other cpu", Metrics{NumCPU: 2, GoMaxProcs: 2, Host: &other}, false},
		{"fingerprint other go", Metrics{NumCPU: 2, GoMaxProcs: 2, Host: &newerGo}, false},
		// Legacy baselines: the CPU count and GOMAXPROCS decide.
		{"unfingerprinted same counts", Metrics{NumCPU: 2, GoMaxProcs: 2}, true},
		{"unfingerprinted other cpus", Metrics{NumCPU: 1, GoMaxProcs: 1}, false},
		{"unfingerprinted other procs", Metrics{NumCPU: 2, GoMaxProcs: 1}, false},
		{"unfingerprinted no counts", Metrics{}, false},
	} {
		if got := sameHost(tc.base, here); got != tc.want {
			t.Errorf("%s: sameHost = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCommittedBaselineIsFingerprinted keeps the repository's baseline
// comparable somewhere: without a fingerprint (or the legacy counts) no
// host would ever hold its absolute throughput floors.
func TestCommittedBaselineIsFingerprinted(t *testing.T) {
	base, err := LoadBaseline("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Host == nil {
		t.Fatal("BENCH_engine.json has no host fingerprint; re-record it with `make bench`")
	}
	if !sameHost(base, *base.Host) {
		t.Fatal("baseline does not match its own fingerprint")
	}
	if base.Host.NumCPU != base.NumCPU || base.Host.GoMaxProcs != base.GoMaxProcs {
		t.Errorf("fingerprint %s disagrees with num_cpu %d / gomaxprocs %d",
			base.Host, base.NumCPU, base.GoMaxProcs)
	}
}
