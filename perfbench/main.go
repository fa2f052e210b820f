// Command perfbench is GoldFinger's benchmark: one command that runs a
// named workload from a seed, checks that the program's outputs are
// correct, and prints every end-to-end metric with its unit — or, with
// -trace 1, the per-layer split recorded by the benchmark's own span
// wrappers around each layer's public functions and handlers.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it holds the
// run's provenance. The exit code is non-zero when any correctness gate
// fails. See README.md in this directory for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// config is one run's parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool   // self-check scale: a few hundred users, short phases
	workdir  string // where durable stores live; inside the checkout
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"build":       runBuild,
	"churn":       func(cfg config, rep *report) error { return runServing(cfg, serveChurn, rep) },
	"routed-read": func(cfg config, rep *report) error { return runServing(cfg, serveRouted, rep) },
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: build, churn or routed-read")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "self-check scale: a few hundred users and sub-second phases")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "directory for the shard-cores' durable stores")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1

	rep := newReport(cfg)
	total0, steal0 := cpuTicks()
	if err := wl(cfg, rep); err != nil {
		return 1, err
	}
	total1, steal1 := cpuTicks()
	rep.prov.StealShare = ratio(steal1-steal0, total1-total0)
	rep.prov.PeakRSSMB = peakRSSMB()
	rep.e2e("peak_rss_mb", rep.prov.PeakRSSMB, "MB")
	rep.e2e("ok_share", rep.okShare(), "share")
	rep.atReferenceSpeed()
	if err := rep.complete(); err != nil {
		return 1, err
	}
	if err := rep.write(stdout); err != nil {
		return 1, err
	}
	for _, g := range rep.gateFailures() {
		fmt.Fprintln(stderr, "gate failed:", g)
	}
	if !rep.correct() {
		return 1, errors.New("correctness gates failed")
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, operation counts and gate
// failures. Workload code may record from several goroutines.
type report struct {
	cfg  config
	prov provenance
	cal  *calibrator

	mu        sync.Mutex
	metrics   map[string]metric
	attempted int64
	failed    int64
	gates     []string
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, prov: newProvenance(cfg), cal: &calibrator{}, metrics: map[string]metric{}}
}

// e2e records an end-to-end metric; it is printed only by untraced runs.
func (r *report) e2e(name string, v float64, unit string) {
	if !r.cfg.trace {
		r.set(name, v, unit)
	}
}

// layer records a per-layer metric; it is printed only by traced runs.
func (r *report) layer(name string, v float64, unit string) {
	if r.cfg.trace {
		r.set(name, v, unit)
	}
}

// atReferenceSpeed rescales the end-to-end timings — every metric in
// seconds or milliseconds, and rates per second — to the calibration's
// reference host speed (calib.go), keeping the measured figures in the
// provenance.
func (r *report) atReferenceSpeed() {
	f := r.cal.factor()
	r.prov.CalibrationMS, r.prov.CalibrationPoints, r.prov.SpeedFactor = r.cal.ms(), len(r.cal.points), f
	if r.cfg.trace {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prov.Measured = map[string]float64{}
	for name, m := range r.metrics {
		switch m.Unit {
		case "s", "ms":
			r.prov.Measured[name] = m.Value
			r.metrics[name] = metric{Value: m.Value * f, Unit: m.Unit}
		case "1/s":
			r.prov.Measured[name] = m.Value
			r.metrics[name] = metric{Value: m.Value / f, Unit: m.Unit}
		}
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// ops counts operations attempted and failed (failed, refused or failing
// a correctness check).
func (r *report) ops(attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// gate records a failed correctness check. Only the first few messages
// of a kind are kept; the count still fails the run.
func (r *report) gate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gates) < 20 {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	} else if len(r.gates) == 20 {
		r.gates = append(r.gates, "(further gate failures omitted)")
	}
}

func (r *report) gateFailures() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.gates...)
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.gates) == 0 && r.failed == 0
}

func (r *report) okShare() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return 1 - float64(r.failed)/float64(r.attempted)
}

// write prints the provenance line and then the result line, which must
// be the last line of standard output.
func (r *report) write(w io.Writer) error {
	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		return err
	}
	r.mu.Lock()
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.gates) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics}
	r.mu.Unlock()
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", prov, line)
	return err
}

// logf logs a phase's timings to standard error, so a slow run can be
// read without a profiler.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// nproc is the generator's connection and worker budget.
func nproc() int { return runtime.NumCPU() }
