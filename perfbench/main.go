// Command perfbench is SimMR's end-to-end replay benchmark. It drives
// one workload (bigtrace, sweep or whatif; see BASELINE.md) through the
// public simmr entry points as a closed loop — one caller waits for
// each operation — checks every operation's output digest against a
// reference computed at setup, and prints one JSON result line.
//
//	perfbench --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it splits the time between an untraced and a traced
// run and reports the per-layer metrics, timed from outside the program
// by forwarding decorators around the policy and the sinks.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// committedDigests pins the reference outputs of every workload at the
// default seed, so a change that moves simulated results fails the
// gate even if it moves the reference path too.
//
//go:embed digests.json
var committedDigests []byte

const defaultSeed = 1

// setups is how many times a run sets its workload up; setup_s is the
// median of their costs.
const setups = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	dir      string
	spans    string
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host and run a result was measured on, so
// absolute numbers are compared only within one host.
type stamp struct {
	Workload   string    `json:"workload"`
	Size       string    `json:"size"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	CPU        string    `json:"cpu"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Commit     string    `json:"commit"`
	Reference  string    `json:"reference_digest"`
	SetupS     []float64 `json:"setup_s"`
	OpS        []float64 `json:"op_s"`
	OpCPUS     []float64 `json:"op_cpu_s"`
	OpRSS      []float64 `json:"op_peak_rss_mb"`
	TracedOpS  []float64 `json:"traced_op_s,omitempty"`
	// SetupRefS and OpRefS are the reference kernel's CPU seconds
	// right after each set-up and each untraced operation.
	SetupRefS []float64 `json:"setup_ref_cpu_s"`
	OpRefS    []float64 `json:"op_ref_cpu_s"`
}

// endToEnd are the untraced run's metrics, with units. Times are
// process CPU seconds (all threads, garbage collector included),
// scaled to the reference host speed (see refkernel.go): on a shared
// virtual host Linux leaves out the time the hypervisor steals,
// which makes wall time swing by a fifth or more from minute to minute
// while CPU time stays steadier. Wall time and unscaled CPU time are
// reported by the traced run.
var endToEnd = []struct{ name, unit string }{
	{"jobs_per_cpu_s", "1/s"},
	{"op_cpu_s_p50", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "bigtrace, sweep or whatif")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed: the same seed gives the same traces")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time; at least one operation always runs")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.size, "size", "full", "full, or tiny for a quick self-test")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/data", "scratch directory for packed traces")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the traced run's spans here as JSON lines")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded in the stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	st, res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// sample is one measured operation.
type sample struct {
	sec    float64 // wall
	cpu    float64
	rss    float64 // peak resident MiB
	ref    float64 // the reference kernel's CPU seconds, run after the operation
	jobs   int
	ok     bool
	layers map[string]float64
	spans  []span
}

func execute(cfg config) (stamp, result, error) {
	st := stamp{
		Workload: cfg.workload, Size: cfg.size, Seed: cfg.seed, Trace: cfg.trace,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: cfg.commit,
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return st, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz, ok := sizes[cfg.size]
	if !ok {
		return st, result{}, fmt.Errorf("unknown size %q", cfg.size)
	}
	if cfg.seconds <= 0 {
		return st, result{}, errors.New("--seconds must be positive")
	}
	pinned, err := pinnedDigest(cfg.seed, sz.name, w.name)
	if err != nil {
		return st, result{}, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return st, result{}, err
	}

	ks, err := refKernels()
	if err != nil {
		return st, result{}, err
	}
	// Each set-up starts from a collected heap and pays for collecting
	// its own garbage, like an operation.
	var b bench
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return st, result{}, err
			}
		}
		runtime.GC()
		cpu0 := cpuSeconds()
		if b, err = w.setup(sz, cfg.seed, cfg.dir); err != nil {
			return st, result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		runtime.GC()
		st.SetupS = append(st.SetupS, cpuSeconds()-cpu0)
		st.SetupRefS = append(st.SetupRefS, refCPU(ks))
	}
	defer b.close()
	st.Reference = b.want()
	// An output is correct when it matches the reference path and, at
	// the default seed, the committed digest.
	check := func(d string) bool { return d == b.want() && (pinned == "" || d == pinned) }

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced []sample
	if cfg.trace {
		untraced = measure(b, ks, false, budget/2, check)
		traced = measure(b, ks, true, budget/2, check)
	} else {
		untraced = measure(b, ks, false, budget, check)
	}
	res := result{Metrics: map[string]metric{}}
	for _, s := range append(untraced, traced...) {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	// Every end-to-end time is scaled by the reference kernel run right
	// after it, so it follows the host's speed within the run too.
	scaled := func(cpu, ref float64) float64 { return cpu * refNominal / ref }
	var setupScaled, opScaled []float64
	for i, sec := range st.SetupS {
		setupScaled = append(setupScaled, scaled(sec, st.SetupRefS[i]))
	}
	var jobs int
	var wall, cpuScaled float64
	for _, s := range untraced {
		jobs += s.jobs
		wall += s.sec
		opScaled = append(opScaled, scaled(s.cpu, s.ref))
		cpuScaled += scaled(s.cpu, s.ref)
		st.OpS = append(st.OpS, s.sec)
		st.OpCPUS = append(st.OpCPUS, s.cpu)
		st.OpRSS = append(st.OpRSS, s.rss)
		st.OpRefS = append(st.OpRefS, s.ref)
	}
	refs := append(append([]float64(nil), st.SetupRefS...), st.OpRefS...)
	var tracedCPU []float64
	for _, s := range traced {
		st.TracedOpS = append(st.TracedOpS, s.sec)
		tracedCPU = append(tracedCPU, s.cpu)
		refs = append(refs, s.ref)
	}
	v := map[string]float64{}
	metrics := endToEnd
	if !cfg.trace {
		v["jobs_per_cpu_s"] = float64(jobs) / cpuScaled
		v["op_cpu_s_p50"] = median(opScaled)
		v["peak_rss_mb"] = median(st.OpRSS)
		v["setup_s"] = median(setupScaled)
	} else {
		metrics = perLayer
		for _, m := range perLayer {
			var xs []float64
			for _, s := range traced {
				xs = append(xs, s.layers[m.name])
			}
			v[m.name] = median(xs)
		}
		v["wall.op_s_p50"] = median(st.OpS)
		v["wall.jobs_per_s"] = float64(jobs) / wall
		v["tracing.op_cpu_s_p50"] = median(tracedCPU)
		v["tracing.overhead_pct"] = 100 * (v["tracing.op_cpu_s_p50"]/median(st.OpCPUS) - 1)
		v["host.ref_cpu_s"] = median(refs)
	}
	for _, m := range metrics {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	if cfg.trace && cfg.spans != "" {
		if err := writeSpans(cfg.spans, traced); err != nil {
			return st, result{}, err
		}
	}
	return st, res, nil
}

// measure runs operations back to back until budget has passed (at
// least one). Traced operations time their layers and read the Go
// runtime's allocation and GC counters around the call.
//
// Every operation starts from the same heap: free memory is returned
// to the OS and the resident high-water mark restarts, so each peak is
// the operation's own. An operation's times end after a collection of
// the garbage it left, so it pays for all of its memory management.
// The reference kernel runs after each operation, outside its times.
func measure(b bench, ks []*refKernel, traced bool, budget time.Duration, check func(string) bool) []sample {
	var out []sample
	runtime.GC()
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		debug.FreeOSMemory()
		resetPeakRSS()
		var t *opTrace
		var alloc0, gc0 float64
		if traced {
			t = newOpTrace()
			alloc0, gc0 = runtimeCounters()
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		jobs, digest, err := b.op(t)
		var alloc1, gc1 float64
		if traced {
			alloc1, gc1 = runtimeCounters()
		}
		runtime.GC()
		s := sample{sec: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, rss: peakRSSMiB(),
			jobs: jobs, ok: err == nil && check(digest)}
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		case !s.ok:
			fmt.Fprintf(os.Stderr, "perfbench: digest %s, want %s\n", digest, b.want())
		}
		if traced {
			s.layers = t.values()
			s.layers["go.alloc_bytes"] = alloc1 - alloc0
			s.layers["go.gc_cycles"] = gc1 - gc0
			sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
			for i := range t.spans {
				t.spans[i].Op = len(out)
			}
			s.spans = t.spans
		}
		s.ref = refCPU(ks)
		out = append(out, s)
	}
	return out
}

// cpuSeconds is the process's CPU time, user plus system, over all
// threads. The kernel leaves out time stolen by the hypervisor.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func runtimeCounters() (allocBytes, gcCycles float64) {
	metrics.Read(runtimeSamples)
	return float64(runtimeSamples[0].Value.Uint64()), float64(runtimeSamples[1].Value.Uint64())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// pinnedDigest returns the committed digest for (size, workload) at
// the default seed, or "" for any other seed.
func pinnedDigest(seed int64, size, workload string) (string, error) {
	if seed != defaultSeed {
		return "", nil
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &pinned); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return pinned[size][workload], nil
}

func writeSpans(path string, samples []sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range samples {
		for _, sp := range s.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the process's resident high-water mark (Linux
// clear_refs 5). Where that is unavailable, peak RSS includes set-up.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.WriteString("5")
	f.Close()
}

// peakRSSMiB reads the resident high-water mark (VmHWM), or 0.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
