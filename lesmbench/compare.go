package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runRecord is one collected run: the line collect.sh writes per run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// row is one workload x metric comparison.
type row struct {
	workload, metric, unit string
	parent, change         summary
	pairs, wins, losses    int
	bound                  float64
	verdict                string
	reject                 bool
}

type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	q1, _, q3 := quartiles(xs)
	return summary{q1: q1, med: median(xs), q3: q3}
}

// minPairs is the fewest parent/change pairs a gain claim may rest on.
const minPairs = 10

// compareSets applies the acceptance rules to two result sets:
//
//   - A gain needs at least minPairs pairs (matched by workload and seed),
//     the change winning at least nine tenths of them (ties count for
//     neither side), and the medians differing, in the better direction, by
//     more than the parent's interquartile spread.
//   - A claimed workload:metric that does not meet that rule rejects.
//   - Every other end-to-end metric must be no worse than the parent's
//     median by more than its bound. Where the parent's spread is wider
//     than the bound it is unresolved, unless every change run reads
//     better than every parent run.
//   - A higher failed fraction than the parent's on any workload rejects.
//
// Per-layer metrics are listed for reading, without a verdict.
func compareSets(spec benchSpec, parent, change []runRecord, claims map[string]bool) ([]row, bool) {
	var rows []row
	rejected := false
	for _, w := range workloadsOf(parent, change) {
		fp, fc := failedFrac(parent, w), failedFrac(change, w)
		r := row{workload: w, metric: "failed_frac", unit: "ratio",
			parent: summary{fp, fp, fp}, change: summary{fc, fc, fc}, verdict: "ok"}
		if fc > fp {
			r.verdict, r.reject = "MORE FAILURES", true
		}
		rows = append(rows, r)
		for _, m := range spec.EndToEnd {
			r := judge(w, m, collect(parent, w, 0, m.Name), collect(change, w, 0, m.Name), claims[w+":"+m.Name])
			rows = append(rows, r)
		}
		for _, m := range spec.PerLayer {
			p, c := collect(parent, w, 1, m.Name), collect(change, w, 1, m.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			r := pairUp(w, m, p, c)
			r.verdict = "info"
			rows = append(rows, r)
		}
	}
	for _, r := range rows {
		rejected = rejected || r.reject
	}
	return rows, rejected
}

func judge(w string, m specMetric, p, c map[int64]float64, claimed bool) row {
	r := pairUp(w, m, p, c)
	r.bound = m.Bound
	if len(p) == 0 || len(c) == 0 {
		r.verdict = "missing"
		r.reject = claimed
		return r
	}
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	gap := sign * (r.parent.med - r.change.med) // > 0: the change is better
	spread := r.parent.q3 - r.parent.q1
	gain := r.pairs >= minPairs && 10*r.wins >= 9*r.pairs && gap > spread
	switch {
	case claimed && gain:
		r.verdict = "claim met"
	case claimed:
		r.verdict, r.reject = "CLAIM NOT MET", true
	case gain:
		r.verdict = "gain"
	case spread > m.Bound*math.Abs(r.parent.med):
		if allBetter(p, c, sign) {
			r.verdict = "better (every run)"
		} else {
			r.verdict = "unresolved (spread > bound)"
		}
	case -gap > m.Bound*math.Abs(r.parent.med):
		r.verdict, r.reject = "REGRESSION", true
	default:
		r.verdict = "ok"
	}
	return r
}

// pairUp summarizes both sides and counts the change's pair wins.
func pairUp(w string, m specMetric, p, c map[int64]float64) row {
	r := row{workload: w, metric: m.Name, unit: m.Unit, parent: summarize(values(p)), change: summarize(values(c))}
	for seed, pv := range p {
		cv, ok := c[seed]
		if !ok {
			continue
		}
		r.pairs++
		better, worse := cv < pv, cv > pv
		if m.Better == "higher" {
			better, worse = worse, better
		}
		if better {
			r.wins++
		} else if worse {
			r.losses++
		}
	}
	return r
}

func allBetter(p, c map[int64]float64, sign float64) bool {
	worstChange, bestParent := math.Inf(-1), math.Inf(1)
	for _, v := range c {
		worstChange = math.Max(worstChange, sign*v)
	}
	for _, v := range p {
		bestParent = math.Min(bestParent, sign*v)
	}
	return worstChange < bestParent
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// collect gathers one metric of one workload by seed.
func collect(set []runRecord, w string, trace int, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range set {
		if r.Workload != w || r.Trace != trace {
			continue
		}
		if v, ok := r.Result.Metrics[name]; ok {
			out[r.Seed] = v.Value
		}
	}
	return out
}

// failedFrac is a workload's failed operations over attempted ones,
// across a set's untraced and traced runs alike.
func failedFrac(set []runRecord, w string) float64 {
	var att, failed int64
	for _, r := range set {
		if r.Workload != w {
			continue
		}
		if r.Result.Attempted == 0 {
			// A run that printed no result (collect.sh records null)
			// counts as one failed operation.
			att++
			failed++
			continue
		}
		att += r.Result.Attempted
		failed += r.Result.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

func workloadsOf(sets ...[]runRecord) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for _, r := range s {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// checkClaims refuses a claim that names no workload of the sets or no
// end-to-end metric of the spec: compareSets judges claims only on those,
// so any other claim would pass without being judged.
func checkClaims(spec benchSpec, parent, change []runRecord, claims map[string]bool) error {
	workloads := map[string]bool{}
	for _, w := range workloadsOf(parent, change) {
		workloads[w] = true
	}
	metrics := map[string]bool{}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = true
	}
	var bad []string
	for c := range claims {
		w, m, _ := strings.Cut(c, ":")
		switch {
		case !workloads[w]:
			bad = append(bad, fmt.Sprintf("%q: no workload %q in the sets", c, w))
		case !metrics[m]:
			bad = append(bad, fmt.Sprintf("%q: %q is not an end-to-end metric", c, m))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("unknown claim %s", strings.Join(bad, "; "))
	}
	return nil
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-30s %-9s %-34s %-34s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "bound", "verdict")
	for _, r := range rows {
		delta := "-"
		if r.parent.med != 0 && !math.IsNaN(r.parent.med) && !math.IsNaN(r.change.med) {
			delta = fmt.Sprintf("%+.2f%%", 100*(r.change.med-r.parent.med)/math.Abs(r.parent.med))
		}
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.2f", r.bound)
		}
		fmt.Fprintf(w, "%-14s %-30s %-9s %-34s %-34s %8s %3d/%-3d %6s  %s\n",
			r.workload, r.metric, r.unit, fmtSummary(r.parent), fmtSummary(r.change), delta, r.wins, r.pairs, bound, r.verdict)
	}
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.med, s.q1, s.q3)
}

// compareMain is "lesmbench compare [-bench BENCHMARK.json] [-claim
// workload:metric]... parent.jsonl change.jsonl". It prints one row per
// workload x metric and exits 1 when the change is rejected.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lesmbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	claims := map[string]bool{}
	fs.Func("claim", "workload:metric the change claims to improve (repeatable)", func(s string) error {
		if !strings.Contains(s, ":") {
			return fmt.Errorf("want workload:metric, got %q", s)
		}
		claims[s] = true
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: lesmbench compare [-bench BENCHMARK.json] [-claim workload:metric]... parent.jsonl change.jsonl")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "lesmbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "lesmbench compare: %s: %v\n", *specPath, err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "lesmbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "lesmbench compare: %v\n", err)
		return 2
	}
	if err := checkClaims(spec, parent, change, claims); err != nil {
		fmt.Fprintf(stderr, "lesmbench compare: %v\n", err)
		return 2
	}
	rows, rejected := compareSets(spec, parent, change, claims)
	printRows(stdout, rows)
	if rejected {
		fmt.Fprintln(stdout, "result: REJECTED")
		return 1
	}
	fmt.Fprintln(stdout, "result: accepted")
	return 0
}
