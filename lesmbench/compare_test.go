package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpec = benchSpec{
	EndToEnd: []specMetric{
		{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
	},
	PerLayer: []specMetric{{Name: "layer.busy_s", Unit: "s", Better: "lower"}},
}

// results builds one untraced record per seed 1..len(lat) of workload w.
func results(w string, lat, rate []float64, failed int64) []runRecord {
	var out []runRecord
	for i := range lat {
		out = append(out, runRecord{Workload: w, Seed: int64(i + 1), Result: result{
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"latency_ms": {lat[i], "ms"}, "rate": {rate[i], "1/s"}},
		}})
	}
	return out
}

// around returns n values alternating around base by ±frac.
func around(base, frac float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		d := frac * float64(i%5-2) / 2
		out[i] = base * (1 + d)
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func verdict(rows []row, w, m string) string {
	for _, r := range rows {
		if r.workload == w && r.metric == m {
			return r.verdict
		}
	}
	return "no row"
}

func TestCompareSameCodeAccepted(t *testing.T) {
	p := results("infer", around(10, 0.02, 10), around(500, 0.02, 10), 0)
	rows, rejected := compareSets(testSpec, p, p, nil)
	if rejected {
		t.Fatal("identical results rejected")
	}
	for _, m := range []string{"latency_ms", "rate", "failed_frac"} {
		if v := verdict(rows, "infer", m); v != "ok" {
			t.Errorf("%s: %q, want ok (no gain, no regression)", m, v)
		}
	}
}

func TestCompareClaimMet(t *testing.T) {
	p := results("infer", around(10, 0.02, 10), around(500, 0.02, 10), 0)
	c := results("infer", scale(around(10, 0.02, 10), 0.8), around(500, 0.02, 10), 0)
	rows, rejected := compareSets(testSpec, p, c, map[string]bool{"infer:latency_ms": true})
	if rejected || verdict(rows, "infer", "latency_ms") != "claim met" {
		t.Errorf("20%% faster on every seed: rejected=%v verdict %q, want claim met", rejected, verdict(rows, "infer", "latency_ms"))
	}
}

func TestCompareClaimNotMet(t *testing.T) {
	p := results("infer", around(10, 0.04, 10), around(500, 0.02, 10), 0)
	// 1% faster: wins every pair, but the gap is inside the parent's spread.
	c := results("infer", scale(around(10, 0.04, 10), 0.99), around(500, 0.02, 10), 0)
	rows, rejected := compareSets(testSpec, p, c, map[string]bool{"infer:latency_ms": true})
	if !rejected || verdict(rows, "infer", "latency_ms") != "CLAIM NOT MET" {
		t.Errorf("rejected=%v verdict %q, want CLAIM NOT MET", rejected, verdict(rows, "infer", "latency_ms"))
	}
	// Too few pairs can never carry a claim.
	rows, rejected = compareSets(testSpec, p[:5], scale2(p[:5], 0.5), map[string]bool{"infer:latency_ms": true})
	if !rejected || verdict(rows, "infer", "latency_ms") != "CLAIM NOT MET" {
		t.Errorf("5 pairs: rejected=%v verdict %q, want CLAIM NOT MET", rejected, verdict(rows, "infer", "latency_ms"))
	}
}

// scale2 scales every record's latency.
func scale2(rs []runRecord, f float64) []runRecord {
	var out []runRecord
	for _, r := range rs {
		m := map[string]metric{}
		for k, v := range r.Result.Metrics {
			m[k] = v
		}
		m["latency_ms"] = metric{m["latency_ms"].Value * f, "ms"}
		r.Result.Metrics = m
		out = append(out, r)
	}
	return out
}

func TestCompareRegression(t *testing.T) {
	p := results("fit", around(10, 0.02, 10), around(500, 0.02, 10), 0)
	c := results("fit", around(10, 0.02, 10), scale(around(500, 0.02, 10), 0.85), 0) // rate 15% lower
	rows, rejected := compareSets(testSpec, p, c, nil)
	if !rejected || verdict(rows, "fit", "rate") != "REGRESSION" {
		t.Errorf("rejected=%v verdict %q, want REGRESSION", rejected, verdict(rows, "fit", "rate"))
	}
	if v := verdict(rows, "fit", "latency_ms"); v != "ok" {
		t.Errorf("unchanged metric: %q, want ok", v)
	}
}

func TestCompareUnresolved(t *testing.T) {
	// The parent's own spread (±40%) is wider than the 10% bound.
	p := results("lookup", around(10, 0.8, 10), around(500, 0.02, 10), 0)
	c := results("lookup", scale(around(10, 0.8, 10), 1.15), around(500, 0.02, 10), 0)
	rows, rejected := compareSets(testSpec, p, c, nil)
	if rejected || verdict(rows, "lookup", "latency_ms") != "unresolved (spread > bound)" {
		t.Errorf("rejected=%v verdict %q, want unresolved", rejected, verdict(rows, "lookup", "latency_ms"))
	}
	// Unless every change run reads better than every parent run.
	c = results("lookup", scale(around(10, 0.8, 10), 0.1), around(500, 0.02, 10), 0)
	rows, _ = compareSets(testSpec, p, c, nil)
	if v := verdict(rows, "lookup", "latency_ms"); v != "better (every run)" && v != "gain" {
		t.Errorf("every run better: %q", v)
	}
}

func TestCompareMoreFailuresRejects(t *testing.T) {
	p := results("infer", around(10, 0.02, 10), around(500, 0.02, 10), 0)
	c := results("infer", scale(around(10, 0.02, 10), 0.5), around(500, 0.02, 10), 1)
	rows, rejected := compareSets(testSpec, p, c, map[string]bool{"infer:latency_ms": true})
	if !rejected || verdict(rows, "infer", "failed_frac") != "MORE FAILURES" {
		t.Errorf("rejected=%v verdict %q, want MORE FAILURES", rejected, verdict(rows, "infer", "failed_frac"))
	}
}

// writeFixtureSets writes a spec and a ten-seed set of fit and infer runs
// into a temporary directory and returns their paths.
func writeFixtureSets(t *testing.T) (specPath, setPath string) {
	t.Helper()
	dir := t.TempDir()
	spec := `{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[{"name":"layer.busy_s","unit":"s","better":"lower"}]}`
	line := `{"workload":"%s","seed":%d,"trace":0,"result":{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":%d,"unit":"ms"}}}}`
	var set strings.Builder
	for seed := 1; seed <= 10; seed++ {
		for _, w := range []string{"fit", "infer"} {
			set.WriteString(strings.TrimSpace(fmt.Sprintf(line, w, seed, 100+seed)) + "\n")
		}
	}
	write := func(name, s string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("b.json", spec), write("p.jsonl", set.String())
}

func TestCompareMainPrintsOneRowPerWorkloadMetric(t *testing.T) {
	specPath, setPath := writeFixtureSets(t)
	var out, errb bytes.Buffer
	if code := compareMain([]string{"-bench", specPath, setPath, setPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if n := strings.Count(out.String(), "\nfit "); n != 2 {
		t.Errorf("%d fit rows, want failed_frac + latency_ms:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "result: accepted") {
		t.Errorf("missing verdict line:\n%s", out.String())
	}
}

func TestCompareMainRefusesUnknownClaim(t *testing.T) {
	specPath, setPath := writeFixtureSets(t)
	for _, claim := range []string{
		"infer:latency_m",    // misspelled metric
		"infer:layer.busy_s", // per-layer metric: never judged
		"lookup:latency_ms",  // workload the sets lack
	} {
		var out, errb bytes.Buffer
		code := compareMain([]string{"-bench", specPath, "-claim", claim, setPath, setPath}, &out, &errb)
		if code != 2 || !strings.Contains(errb.String(), "unknown claim") {
			t.Errorf("-claim %s: exit %d, stderr %q, want exit 2 with unknown claim", claim, code, errb.String())
		}
		if strings.Contains(out.String(), "result: accepted") {
			t.Errorf("-claim %s: accepted without judging the claim", claim)
		}
	}
	var out, errb bytes.Buffer
	if code := compareMain([]string{"-bench", specPath, "-claim", "infer:latency_ms", setPath, setPath}, &out, &errb); code != 1 {
		t.Errorf("known claim on identical sets: exit %d, want 1 (claim not met): %s%s", code, out.String(), errb.String())
	}
}
