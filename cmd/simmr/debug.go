package main

import (
	"simmr/internal/debugserver"
	"simmr/pkg/simmr"
)

// startDebugServer exposes the run's live telemetry and the standard Go
// profiling endpoints on addr for the lifetime of the process — the
// shared internal/debugserver surface (/metrics, /debug/vars,
// /debug/pprof/..., simmr_build_info). The returned telemetry must be
// wired into the replay (cellexec.Options.Telemetry, or
// SweepConfig.Telemetry); it is sharded and lock-free on the hot path,
// so one instance aggregates any number of concurrent engines without a
// mutex per event.
func startDebugServer(addr string) (*simmr.Telemetry, error) {
	return debugserver.Start("simmr", addr)
}
