package benchkit

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Host fingerprints the machine a benchmark run measured on. Absolute
// throughput (events/sec, jobs/sec) only means something against a
// baseline with an equal Host: the guard compares it there and falls
// back to its host-independent ratio bounds everywhere else.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost fingerprints the running process's machine.
func CurrentHost() Host {
	return Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func (h Host) String() string {
	return fmt.Sprintf("%s, %d CPU, GOMAXPROCS %d, %s", h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion)
}

// cpuModel reads the CPU model name (Linux); elsewhere it falls back to
// the architecture, which still separates the coarse cases.
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
