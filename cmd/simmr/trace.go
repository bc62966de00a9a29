package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"simmr/internal/cellexec"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

// runTraceCmd dispatches the `simmr trace` subcommands: `run` (replay
// with observability sinks, export a Chrome trace), `explain` (causal
// attribution: per-job wait breakdowns with blame, deadline-miss root
// causes, and the makespan critical path), `whatif` (branch one shared
// replay prefix into K mutated what-if scenarios), `pack`/`unpack`
// (convert between JSON and the columnar binary `.strc` store), and
// `info` (section-level layout of a packed trace).
func runTraceCmd(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runTraceRun(args[1:])
		case "explain":
			return runTraceExplain(args[1:])
		case "whatif":
			return runTraceWhatif(args[1:])
		case "pack":
			return runTracePack(args[1:])
		case "unpack":
			return runTraceUnpack(args[1:])
		case "info":
			return runTraceInfo(args[1:])
		}
	}
	return fmt.Errorf("usage: simmr trace run|explain|whatif|pack|unpack|info -trace FILE [flags]")
}

// runTraceRun implements `simmr trace run`: replay a workload with the
// observability sinks attached and export the result as a Chrome
// trace-event file (open in chrome://tracing or Perfetto) and,
// optionally, a slot-occupancy TSV.
func runTraceRun(args []string) error {
	fs := flag.NewFlagSet("trace run", flag.ContinueOnError)
	var (
		tracePath   = fs.String("trace", "", "path to a trace JSON file")
		dbDir       = fs.String("db", "", "trace database directory (with -name)")
		dbName      = fs.String("name", "", "trace name inside -db")
		policyName  = fs.String("policy", "fifo", "scheduling policy: fifo, maxedf, minedf, fair, capacity")
		shares      = fs.String("capacity-shares", "0.5,0.5", "comma-separated queue shares for -policy capacity")
		mapSlots    = fs.Int("map-slots", 64, "cluster map slots")
		reduceSlots = fs.Int("reduce-slots", 64, "cluster reduce slots")
		slowstart   = fs.Float64("slowstart", 0.05, "fraction of maps completed before reduces launch")
		out         = fs.String("out", "trace.json", "Chrome trace-event output path")
		slotTSV     = fs.String("slot-timeline", "", "also write a slot-occupancy TSV (renders via internal/report)")
		debugAddr   = fs.String("debug-addr", "", "serve Prometheus /metrics, expvar, and pprof on this address")
	)
	cf := addCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tel *simmr.Telemetry
	if *debugAddr != "" {
		var err error
		tel, err = startDebugServer(*debugAddr)
		if err != nil {
			return err
		}
	}
	stopLoad := tel.Span("load")
	tr, err := loadTrace(*tracePath, *dbDir, *dbName)
	stopLoad()
	if err != nil {
		return err
	}
	policy, err := policyByName(*policyName, *shares)
	if err != nil {
		return err
	}

	ct := simmr.NewChromeTraceSink()
	var tl *simmr.TimelineSink
	sink := simmr.Sink(ct)
	if *slotTSV != "" {
		tl = simmr.NewTimelineSink()
		sink = simmr.TeeSinks(ct, tl)
	}
	// The attribution sink feeds the end-of-run summary (slot-wait
	// share); completion percentiles come straight from the result.
	attrSink := simmr.NewAttrSink(simmr.AttrOptions{
		MapSlots:    *mapSlots,
		ReduceSlots: *reduceSlots,
		Trace:       tr,
	})
	sink = simmr.TeeSinks(sink, attrSink)
	opsSink, opsDone := opsRegister(tel, runs.KindReplay, tr, policy,
		fmt.Sprintf("map_slots=%d reduce_slots=%d", *mapSlots, *reduceSlots))
	cfg := simmr.ReplayConfig{
		MapSlots:               *mapSlots,
		ReduceSlots:            *reduceSlots,
		MinMapPercentCompleted: *slowstart,
		Sink:                   simmr.TeeSinks(sink, opsSink),
	}
	cache := cf.open(tel)
	stopRun := tel.Span("run")
	res, hit, err := cellexec.ReplayOne(cellexec.Options{Telemetry: tel, Cache: cache}, cfg, tr, policy)
	stopRun()
	opsDone(res, err)
	if err != nil {
		return err
	}
	defer tel.Span("report")()
	if hit {
		// A cached result carries no sink output: the Chrome trace and
		// slot timeline are event exports, and no events were replayed.
		// Say so instead of writing empty files.
		fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s\n",
			len(res.Jobs), res.Makespan, res.Events, policy.Name())
		printCacheLine(cache)
		fmt.Printf("cache hit: skipped event exports (%s); rerun without the cache flags to regenerate them\n", *out)
		return nil
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := ct.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if tl != nil {
		g, err := os.Create(*slotTSV)
		if err != nil {
			return err
		}
		if err := tl.WriteTSV(g); err != nil {
			g.Close()
			return err
		}
		if err := g.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("%d jobs, makespan %.1f s, %d events, policy %s\n",
		len(res.Jobs), res.Makespan, res.Events, policy.Name())
	printCacheLine(cache)
	printRunSummary(res, attrSink.Report())
	fmt.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *out)
	if tl != nil {
		fmt.Printf("wrote %s\n", *slotTSV)
	}
	return nil
}

// printRunSummary renders the compact end-of-run digest: job-completion
// percentiles plus the share of total job time spent waiting rather
// than running (the attribution sink's wait phases over completions —
// high share means the cluster, not the work, set the pace).
func printRunSummary(res *simmr.ReplayResult, rep *simmr.AttrReport) {
	comp := make([]float64, 0, len(res.Jobs))
	missed := 0
	for _, j := range res.Jobs {
		comp = append(comp, j.CompletionTime())
		if j.ExceededDeadline() {
			missed++
		}
	}
	sort.Float64s(comp)
	// Nearest-rank percentiles; comp is non-empty (the engine rejects
	// empty workloads).
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(comp)))) - 1
		if i < 0 {
			i = 0
		}
		return comp[i]
	}
	var wait, total float64
	for i := range rep.Jobs {
		wait += rep.Jobs[i].WaitTotal()
		total += rep.Jobs[i].Completion()
	}
	share := 0.0
	if total > 0 {
		share = wait / total
	}
	fmt.Printf("completion p50 %.1f s, p95 %.1f s, p99 %.1f s; slot-wait share %.1f%%; %d deadline miss(es)\n",
		q(0.50), q(0.95), q(0.99), share*100, missed)
}
