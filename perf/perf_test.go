package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyConfig runs a workload briefly on test-sized inputs.
var tinyConfig = config{seed: 7, seconds: 0.05, out: os.TempDir()}

func checkNames(t *testing.T, what string, got []namedMetric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].Name || m.unit != want[i].Unit {
			t.Errorf("%s metric %d: printed %s [%s], BENCHMARK.json lists %s [%s]", what, i, m.name, m.unit, want[i].Name, want[i].Unit)
		}
	}
}

func TestWorkloadsTinyMatchBenchmark(t *testing.T) {
	b := readBenchmark(t)
	ws := workloads(true)
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	for i, w := range b.Workloads {
		if !slices.Contains(names, w.Name) || names[i] != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark runs %v", i, w.Name, names)
		}
	}
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig
			cfg.trace = traced
			cfg.out = t.TempDir()
			o := runWorkload(w, cfg)
			if o.failed > 0 || o.attempted == 0 {
				t.Fatalf("%s (trace %v): %d of %d failed: %v", w.name, traced, o.failed, o.attempted, o.failures)
			}
			checkNames(t, w.name+" end-to-end", o.e2e, b.EndToEnd)
			if traced {
				checkNames(t, w.name+" per-layer", o.layers, b.PerLayer)
			}
			for _, m := range o.e2e {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.name, m.value)
				}
			}
		}
	}
}

func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, w := range workloads(true) {
		cfg := tinyConfig
		cfg.plant = true
		if o := runWorkload(w, cfg); o.failed == 0 {
			t.Errorf("%s: a planted wrong answer passed every gate", w.name)
		}
	}
}

func TestTheorem3Bound(t *testing.T) {
	// k·ln(W/s)/ln(1+k/s) with W/s = e^3: 2·3/ln(1+2/512).
	got := theorem3Bound(2, 512, 512*math.Exp(3))
	want := 6 / math.Log1p(2.0/512)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("theorem3Bound = %v, want %v", got, want)
	}
	// Below one epoch the log term is clamped to 1.
	if got, want := theorem3Bound(4, 4, 3), 4/math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("theorem3Bound(W < s) = %v, want %v", got, want)
	}
}

func TestWeightedCDF(t *testing.T) {
	// Base [3, 1, 2] cycled for 5 items: 3, 1, 2, 3, 1 — total 10.
	c := newWeightedCDF([]float64{3, 1, 2}, 5)
	for _, tc := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.4}, {2.9, 0.4}, {3, 1}, {9, 1},
	} {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Quantile(0.3); got != 2 {
		t.Errorf("Quantile(0.3) = %v, want 2", got)
	}
	if e := c.maxCDFError(c.At, 64); e != 0 {
		t.Errorf("max error of the exact CDF against itself = %v", e)
	}
	shifted := func(x float64) float64 { return c.At(x - 1) }
	if e := c.maxCDFError(shifted, 64); math.Abs(e-0.6) > 1e-12 {
		t.Errorf("max error of a shifted CDF = %v, want 0.6", e)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "go-window", "--trace", "0", "-seed", "2", "-trace"})
	want := []string{"--workload", "go-window", "--trace=0", "-seed", "2", "-trace"}
	if !slices.Equal(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
