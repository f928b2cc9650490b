package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is not NaN")
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 {
		t.Errorf("median reordered its input")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{0.9, 1.0, 1.1, 1.2, 1.05, 0.95, 1.0, 1.02, 0.98, 1.3}, 0.9725, 1.125},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		have bool
	}{
		{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, 10)
		if ok != c.have || (ok && p != c.p) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.have)
		}
	}
	d := summarize(make([]float64, 19))
	if d.TailP != 0 || d.N != 19 {
		t.Errorf("summarize of 19 samples reported tail p%v", d.TailP)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.root", Parent: -1, Start: 0, End: 100},
		{Name: "a.x", Parent: 0, Start: 10, End: 30},
		{Name: "a.y", Parent: 0, Start: 20, End: 50},  // overlaps a.x: counted once
		{Name: "b.z", Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
		{Name: "c.w", Parent: 2, Start: 25, End: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {8, 9}}
	if got := unionLength(ivs); got != 3+4 {
		t.Errorf("unionLength = %d, want 7", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %d", got)
	}
}

func TestAttributionSumsToWall(t *testing.T) {
	spans := []span{
		{Name: "bench.unit", Parent: -1, Start: 0, End: 100},
		{Name: "core.round", Parent: 0, Start: 0, End: 60},
		{Name: "felsen.wave", Parent: 1, Start: 10, End: 40},
		{Name: "felsen.lift", Parent: 0, Start: 60, End: 90},
		{Name: "bench.unit", Parent: -1, Start: 200, End: 300},
		{Name: "core.round", Parent: 4, Start: 200, End: 300},
	}
	shares, unattributed := attribution(spans)
	want := map[string]float64{"core": (30 + 100) / 200.0, "felsen": (30 + 30) / 200.0}
	total := unattributed
	for l, s := range shares {
		total += s
		if !near(s, want[l]) {
			t.Errorf("share of %s = %v, want %v", l, s, want[l])
		}
	}
	if !near(unattributed, 10/200.0) {
		t.Errorf("unattributed = %v, want 0.05", unattributed)
	}
	if !near(total, 1) {
		t.Errorf("layer shares plus unattributed = %v, want 1", total)
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := newRecorder(), newRecorder()
	r := a.open("bench.x", -1)
	a.close(r)
	r = b.open("bench.y", -1)
	c := b.open("core.z", r)
	b.close(c)
	b.close(r)
	a.merge(b)
	if len(a.spans) != 3 || a.spans[2].Parent != 1 || a.spans[1].Parent != -1 {
		t.Errorf("merged spans = %+v", a.spans)
	}
	var none *recorder
	if i := none.open("bench.x", -1); i != -1 {
		t.Errorf("nil recorder opened span %d", i)
	}
	none.close(-1)
}

func TestCPULine(t *testing.T) {
	a, err := parseCPULine("cpu  100 0 50 800 10 0 0 40 7 0")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 40 {
		t.Errorf("parsed %+v, want total 1000 steal 40", a)
	}
	b := cpuTicks{total: 1200, steal: 90}
	if got := stealShare(a, b); !near(got, 0.25) {
		t.Errorf("steal share = %v, want 0.25", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("steal share without ticks = %v", got)
	}
	if _, err := parseCPULine("intr 1 2 3"); err == nil {
		t.Errorf("non-cpu line parsed")
	}
}

func TestESSOfConstantTrace(t *testing.T) {
	if got := essOf([]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}); got != 1 {
		t.Errorf("ESS of a constant trace = %v, want 1", got)
	}
}

// TestSmoke runs every workload once at tiny size, untraced and traced,
// and requires every output check to pass and every metric to be set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{Workload: name, Seed: 7, DataSeed: 20160401, Seconds: 1, Trace: traced, Smoke: true}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", name, traced, out.Failed, out.Attempted, out.Problems)
			}
			if !traced {
				for _, d := range endToEnd {
					if d.Name == "peak_rss_mb" {
						continue // set by execute
					}
					if v, ok := out.Metrics[d.Name]; !ok || !(v > 0) {
						t.Errorf("%s: %s = %v, want a positive value", name, d.Name, v)
					}
				}
			}
		}
	}
}
