// Command lesmbench is lesm's end-to-end, layer-by-layer benchmark.
//
// One run measures one workload on inputs generated from a seed:
//
//	lesmbench --workload fit|infer|lookup-reload --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with nothing recorded
// inside the measured path; with --trace 1 it records spans around every
// call into a layer's public function (plus the obs.Recorder hooks the
// program already exposes) and reports the per-layer metrics instead. A
// human-readable report precedes the result; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// A failed correctness check counts in "failed" and makes the command exit
// non-zero. "lesmbench compare" compares two sets of collected results
// (see compare.go and BENCHMARK.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("lesmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fit, infer or lookup-reload")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "lesmbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "lesmbench: unknown workload %q (want fit, infer or lookup-reload)\n", *workload)
		return 2
	}
	// Scratch files (snapshots, checkpoints, traces) stay inside the
	// working directory, under the build directory the checkout ignores.
	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "lesmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	if err := w(b); err != nil {
		fmt.Fprintf(stderr, "lesmbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.tr != nil {
		tracePath := filepath.Join(buildDir(), fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err := b.tr.writeFile(tracePath); err != nil {
			fmt.Fprintf(stderr, "lesmbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (%d spans)\n", tracePath, b.tr.len())
		self := layerSelfTimes(b.tr.all())
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			b.note("self time of %s spans, whole run: %.6g s", l, self[l].Seconds())
		}
	}
	res := b.result()
	b.printReport(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "lesmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is where run.sh builds the binary; the benchmark's scratch
// files live there too, so a run writes nothing else in its checkout.
func buildDir() string {
	if d := os.Getenv("LESMBENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

var workloads = map[string]func(*bench) error{
	"fit":           runFit,
	"infer":         runInfer,
	"lookup-reload": runLookupReload,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its parameters, the metrics reported so far,
// and the operation and failure counts.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	dir      string
	// tr is nil in the untraced run: no span is recorded and no recorder
	// is attached, so the measured path is the program alone.
	tr *tracer

	e2e, layer map[string]metric
	// notes are report lines for figures the JSON line does not carry.
	notes              []string
	attempted, failed  int64
	failures           []string
	suppressedFailures int
}

func newBench(workload string, seed int64, dur time.Duration, traced bool, dir string) *bench {
	b := &bench{
		workload: workload, seed: seed, dur: dur, dir: dir,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) traced() bool { return b.tr != nil }

// setE2E records an end-to-end metric. The untraced run reports these.
func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }

// setLayer records a per-layer metric. The traced run reports these.
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// note adds a report line that the JSON result does not carry.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, its failure.
// Every correctness check belongs to an operation, so a failed check is a
// failed operation.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, err.Error())
		} else {
			b.suppressedFailures++
		}
	}
}

func (b *bench) result() result {
	m := b.e2e
	if b.traced() {
		m = b.layer
	}
	attempted := b.attempted
	if attempted == 0 {
		// A run that attempted nothing measured nothing: report it as a
		// failure rather than as a vacuous success.
		attempted, b.failed = 1, 1
		b.failures = append(b.failures, "no operation attempted")
	}
	return result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed, Metrics: m}
}

func (b *bench) printReport(w io.Writer) {
	mode := "end-to-end (untraced)"
	metrics := b.e2e
	if b.traced() {
		mode, metrics = "per-layer (traced)", b.layer
	}
	fmt.Fprintf(w, "lesmbench workload=%s seed=%d seconds=%.3g mode=%s\n", b.workload, b.seed, b.dur.Seconds(), mode)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  attempted=%d succeeded=%d failed=%d failed_frac=%.6g ratio\n",
		b.attempted, b.attempted-b.failed, b.failed, frac)
	for _, f := range b.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if b.suppressedFailures > 0 {
		fmt.Fprintf(w, "  FAILED: ... and %d more\n", b.suppressedFailures)
	}
}
