// Command perfbench is the mpcgs benchmark. One invocation runs one
// workload for a fixed time and prints, as its last line, a JSON object
// with the run's output checks and its metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics of a traced run with -trace 1.
// The line before it carries the run's environment and shape stamp and
// the distributions behind each metric. See README.md.
//
//	go run . -workload em-paper -seed 1 -seconds 20 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"ess_per_s", "1/s"},
	{"draws_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reports 0; README.md lists which apply.
var perLayer = []metricDef{
	{"core.round_us", "us"},
	{"core.mstep_s", "s"},
	{"core.rel_loglik_us", "us"},
	{"core.mstep_evals_est", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.em_iterations", "count"},
	{"core.mstep_share", "ratio"},
	{"core.replay_gap_share", "ratio"},
	{"core.ess_per_s_gmh_over_mh", "ratio"},
	{"resim.ns_per_proposal", "ns"},
	{"resim.failed_ratio", "ratio"},
	{"resim.share", "ratio"},
	{"felsen.patterns", "count"},
	{"felsen.wave_ns_per_cell", "ns"},
	{"felsen.lift_us", "us"},
	{"felsen.rebase_to_us", "us"},
	{"felsen.rebase_full_ms", "ms"},
	{"felsen.wave_share", "ratio"},
	{"felsen.lift_share", "ratio"},
	{"device.launches_per_round", "count"},
	{"device.threads_per_round", "count"},
	{"device.speedup_1_to_n", "ratio"},
	{"trace.append_ns_per_draw", "ns"},
	{"trace.flush_us", "us"},
	{"trace.bytes_per_draw", "bytes"},
	{"trace.share", "ratio"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.snapshot_bytes", "bytes"},
	{"ckpt.job_record_ms", "ms"},
	{"ckpt.share", "ratio"},
	{"stats.online_ess_ns_per_draw", "ns"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.run_ms", "ms"},
	{"sched.converged_jobs", "count"},
	{"sched.share", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.share", "ratio"},
	{"bench.unattributed_share", "ratio"},
	{"bench.tracing_overhead", "ratio"},
	{"env.steal_share", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     uint64
	DataSeed uint64
	Seconds  float64
	Trace    bool
	Smoke    bool
}

// deadline is when the measured phase of a run started plus its budget.
func (o *options) deadline() time.Time {
	return time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
}

// shape records what a workload ran on.
type shape struct {
	Taxa     int    `json:"taxa"`
	BP       int    `json:"bp"`
	Patterns int    `json:"patterns"`
	N        int    `json:"proposals"`
	Workers  int    `json:"workers"`
	DataSeed uint64 `json:"data_seed"`
}

// outcome is what a workload run returns.
type outcome struct {
	Attempted, Failed int
	Shape             shape
	Metrics           map[string]float64
	// Report holds the distributions and check values printed on the
	// summary line (not the result line).
	Report map[string]any
	// Problems describes each failed output check.
	Problems []string
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Report: map[string]any{}}
}

// check counts one output check, recording a problem when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

type workload func(o *options) (*outcome, error)

var workloads = map[string]workload{
	"em-paper":    runEMPaper,
	"chain-wide":  runChainWide,
	"service-mix": runServiceMix,
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "", "em-paper, chain-wide or service-mix")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed the chain and job seeds of the run are made from")
	flag.Uint64Var(&o.DataSeed, "data-seed", 20160401, "seed the simulated alignments are made from")
	flag.Float64Var(&o.Seconds, "seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.BoolVar(&o.Smoke, "smoke", false, "tiny inputs, one unit of work (checks the plumbing, not performance)")
	flag.Parse()
	o.Trace = *trace == 1
	run, ok := workloads[o.Workload]
	if !ok || o.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload em-paper|chain-wide|service-mix, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if err := execute(&o, run); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.Workload, err)
		os.Exit(1)
	}
}

func execute(o *options, run workload) error {
	before, stealErr := readCPUTicks()
	out, err := run(o)
	if err != nil {
		return err
	}
	after, _ := readCPUTicks()
	steal := 0.0
	if stealErr == nil {
		steal = stealShare(before, after)
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
		out.Metrics["env.steal_share"] = steal
	} else if _, ok := out.Metrics["peak_rss_mb"]; !ok {
		out.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": out.Metrics[d.Name], "unit": d.Unit}
	}
	for _, d := range defs {
		if _, ok := out.Metrics[d.Name]; !ok && !o.Trace {
			return fmt.Errorf("workload did not measure %s", d.Name)
		}
	}
	errorRate := float64(out.Failed) / float64(max(out.Attempted, 1))
	summary := map[string]any{
		"workload":   o.Workload,
		"trace":      o.Trace,
		"smoke":      o.Smoke,
		"seed":       o.Seed,
		"data_seed":  o.DataSeed,
		"seconds":    o.Seconds,
		"shape":      out.Shape,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceVersion(),
		"steal":      steal,
		"error_rate": errorRate,
		"problems":   out.Problems,
		"report":     out.Report,
	}
	if !o.Trace {
		for _, d := range defs {
			fmt.Printf("%-12s %.6g %s\n", d.Name, out.Metrics[d.Name], d.Unit)
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	result, err := json.Marshal(map[string]any{
		"correct":   out.Failed == 0 && out.Attempted > 0,
		"attempted": max(out.Attempted, 1),
		"failed":    out.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(result))
	return nil
}

// sourceVersion identifies the code under test: the git commit when the
// tree is a repository, otherwise a digest of the module's Go sources.
func sourceVersion() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
