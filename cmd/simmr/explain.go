package main

import (
	"flag"
	"fmt"
	"os"

	"simmr/internal/cellexec"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

// runTraceExplain implements `simmr trace explain`: replay a workload
// with the causal attribution sink attached and report why every job
// finished when it did — a per-job wait breakdown whose phases sum
// exactly to completion time, blame for every contended wait (which
// resident job's slot hand-off ended it, or that the policy left the
// slot free), deadline-miss root causes, and the cluster-wide critical
// path of slot hand-offs that determined the makespan. Optionally
// exports a Chrome trace with the critical path as an overlay track.
func runTraceExplain(args []string) error {
	fs := flag.NewFlagSet("trace explain", flag.ContinueOnError)
	var (
		tracePath   = fs.String("trace", "", "path to a trace JSON file")
		dbDir       = fs.String("db", "", "trace database directory (with -name)")
		dbName      = fs.String("name", "", "trace name inside -db")
		policyName  = fs.String("policy", "fifo", "scheduling policy: fifo, maxedf, minedf, fair, capacity")
		shares      = fs.String("capacity-shares", "0.5,0.5", "comma-separated queue shares for -policy capacity")
		mapSlots    = fs.Int("map-slots", 64, "cluster map slots")
		reduceSlots = fs.Int("reduce-slots", 64, "cluster reduce slots")
		slowstart   = fs.Float64("slowstart", 0.05, "fraction of maps completed before reduces launch")
		topK        = fs.Int("top", 10, "rows in the top-K miss and wait tables")
		asJSON      = fs.Bool("json", false, "emit the report as JSON instead of TSV")
		out         = fs.String("out", "", "also write a Chrome trace with the critical path as an overlay track")
		debugAddr   = fs.String("debug-addr", "", "serve Prometheus /metrics (incl. wait-phase histograms and miss-cause counters), expvar, and pprof on this address")
	)
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

	attrSink := simmr.NewAttrSink(simmr.AttrOptions{
		MapSlots:    *mapSlots,
		ReduceSlots: *reduceSlots,
		Trace:       tr,
	})
	sink := simmr.Sink(attrSink)
	var ct *simmr.ChromeTraceSink
	if *out != "" {
		ct = simmr.NewChromeTraceSink()
		sink = simmr.TeeSinks(attrSink, ct)
	}
	opsSink, opsDone := opsRegister(tel, runs.KindAttr, tr, policy,
		fmt.Sprintf("map_slots=%d reduce_slots=%d", *mapSlots, *reduceSlots))
	cfg := simmr.ReplayConfig{
		MapSlots:               *mapSlots,
		ReduceSlots:            *reduceSlots,
		MinMapPercentCompleted: *slowstart,
		Sink:                   simmr.TeeSinks(sink, opsSink),
	}
	stopRun := tel.Span("run")
	res, _, err := cellexec.ReplayOne(cellexec.Options{Telemetry: tel}, cfg, tr, policy)
	stopRun()
	opsDone(res, err)
	if err != nil {
		return err
	}
	defer tel.Span("report")()

	rep := attrSink.Report()
	tel.ObserveExplanations(rep.Jobs)

	if ct != nil {
		ct.SetOverlay("critical path", simmr.AttrOverlay(rep.CriticalPath))
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
	}

	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := rep.WriteTSV(os.Stdout, *topK); err != nil {
			return err
		}
	}
	if ct != nil {
		fmt.Fprintf(os.Stderr, "wrote %s with critical-path overlay (open in chrome://tracing or https://ui.perfetto.dev)\n", *out)
	}
	return nil
}
