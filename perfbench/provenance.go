package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance is printed with every result so a number can be traced back
// to the code, the machine and the inputs that produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny,omitempty"`
	GitRev     string  `json:"git_revision"`
	GitDirty   *bool   `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Race       bool    `json:"race"`
	MeasuredAt string  `json:"measured_at"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run; a high value marks a run
	// measured on a busy host.
	StealShare float64 `json:"steal_share"`
	// CalibrationMS is the calibration kernel's mean time over the run's
	// calibration points (calib.go): the host's speed during the run.
	// SpeedFactor is calibRefMS over it, the factor the end-to-end
	// timings were multiplied by (rates divided by), and Measured holds
	// those timings as measured.
	CalibrationMS     float64            `json:"calibration_ms"`
	CalibrationPoints int                `json:"calibration_points"`
	SpeedFactor       float64            `json:"speed_factor"`
	Measured          map[string]float64 `json:"measured,omitempty"`

	Corpus *corpusShape `json:"corpus,omitempty"`
	// OpenLoopQPS is the fixed open-loop request rate of a serving
	// workload (total over all generator connections).
	OpenLoopQPS float64 `json:"open_loop_qps,omitempty"`
	// QuerySamples and MutateSamples count the latencies behind the
	// serving workloads' percentiles.
	QuerySamples  int `json:"query_samples,omitempty"`
	MutateSamples int `json:"mutate_samples,omitempty"`
	// ClosedLoopOps is the fixed request count of a serving workload's
	// closed-loop phase.
	ClosedLoopOps int `json:"closed_loop_ops,omitempty"`
	// ClosedLoopClients is the closed-loop phase's client count.
	ClosedLoopClients int `json:"closed_loop_clients,omitempty"`
	// Fsync is the durable stores' WAL flush policy.
	Fsync  string `json:"fsync,omitempty"`
	Shards int    `json:"shards,omitempty"`
}

// corpusShape names the generator and the corpus it produced.
type corpusShape struct {
	Generator string `json:"generator"`
	Users     int    `json:"users"`
	HeldOut   int    `json:"held_out"`
	Bits      int    `json:"bits"`
	K         int    `json:"k"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Tiny:       cfg.tiny,
		GitRev:     "unknown (not a git checkout)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Race:       raceEnabled,
		MeasuredAt: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.GitDirty = &dirty
		}
	}
	return p
}

// cpuTicks reads the machine-wide CPU counters from /proc/stat: the
// total and the steal ticks; zeros where /proc is unavailable.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
