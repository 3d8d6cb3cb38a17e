// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the tycos packages, checks the outputs, and prints
// one JSON result line:
//
//	perfbench --workload search|discover|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run, and the spans (JSONL) and
// the CPU profile are written under .bench_build/perfbench/. Every workload
// reports the same metric names: an end-to-end metric is defined for each
// workload (spec.json says how), and the per-layer metrics come from ladder
// probes that call each layer's public functions on a pair cut from the
// workload's own inputs, from the traced run's CPU profile and from the
// runtime. Figures that only one workload has (the search variants' times,
// the discovery phase split, the daemon's queue wait, ...) are printed to
// standard error as details. Every layer is measured from outside, through
// its public functions and the outputs the program already exposes; nothing
// is added inside the program.
//
// run.sh builds and runs it from the root of a checkout. spec.json holds the
// constants BENCHMARK.json has no field for (the metric names and their
// definitions per workload, the serve rate steps and latency limit, the
// held-out seed, what each metric should move).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir holds the traced run's spans and profile, relative to the checkout
// root the benchmark is started from.
const outDir = ".bench_build/perfbench"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state shared by a workload while it runs: its parameters, the
// operation tally, the reported metrics and the traced run's span recorder
// (nil when untraced).
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	attempted, failed int
	checkErrs         []string
	metrics           map[string]metric
	details           map[string]metric
	spans             *recorder
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// verify turns a failed output check into the error that fails its
// operation.
func verify(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// note keeps the first few failure messages for the stderr report.
func (r *run) note(err error) {
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// set records one metric of the result line.
func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// detail records a figure only this workload has; it is printed to standard
// error, not in the result line.
func (r *run) detail(name string, value float64, unit string) {
	r.details[name] = metric{Value: value, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"search":   runSearch,
	"discover": runDiscover,
	"serve":    runServe,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run: search, discover or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload search|discover|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		metrics: map[string]metric{}, details: map[string]metric{},
	}
	if r.traced {
		r.spans = newRecorder()
	}
	prov := provenance(r)
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(pj))

	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.workload, r.seed))
		if err := r.spans.writeJSONL(path, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans in %s\n", path)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", e)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", r.workload)
		return 1
	}
	printMetrics("detail", r.details)
	printMetrics("metric", r.metrics)
	if err := checkNames(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	out, err := json.Marshal(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printMetrics lists ms on standard error, sorted by name.
func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-6s %-40s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// checkNames verifies that the result carries exactly the metrics spec.json
// lists for this mode, each finite and non-zero, so that a missing or broken
// figure fails the run instead of printing a partial result.
func checkNames(r *run) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	want := s.EndToEnd
	if r.traced {
		want = s.PerLayer
	}
	for name, def := range want {
		m, ok := r.metrics[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != def.Unit:
			return fmt.Errorf("metric %s in %s, want %s", name, m.Unit, def.Unit)
		//lint:allow floateq the contract forbids a metric that reads exactly 0
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == 0:
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in spec.json", name)
		}
	}
	return nil
}

// provenance describes the machine, toolchain, code and inputs of this run.
func provenance(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"traced":     r.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where the
// file is missing, as outside Linux).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: PERFBENCH_COMMIT when the caller sets it
// (a checkout without .git has no other record), else the VCS revision the
// go tool stamped into the binary, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
