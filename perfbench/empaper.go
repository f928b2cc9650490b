package main

import (
	"math"
	"time"

	"mpcgs"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
)

// emSize is the em-paper workload's shape.
type emSize struct {
	Data                                    dataSpec
	N, Workers, Burnin, Samples, Iterations int
	Theta0, ESSTarget                       float64
}

// emPaperSize is a full EM estimation of a 12-taxon × 1000 bp alignment
// (pinned to 354 ± 5% site patterns, the count at data seed 20160401)
// from θ0 = 0.5 with N = 8 proposals on 2 workers. Burn-in and samples
// are scaled down from mpcgs.Run's defaults (1000/10⁴) so that a run holds ~20
// estimations, and EM is capped at 3 iterations (it never met its
// tolerance sooner in any run measured). The M-step still dominates.
func emPaperSize(smoke bool) emSize {
	if smoke {
		return emSize{Data: dataSpec{Taxa: 6, BP: 200, PatLo: 1, PatHi: 1 << 30}, N: 4, Workers: 2, Burnin: 20, Samples: 60, Iterations: 2, Theta0: 0.5}
	}
	return emSize{Data: dataSpec{Taxa: 12, BP: 1000, PatLo: 336, PatHi: 372}, N: 8, Workers: 2, Burnin: 100, Samples: 1000, Iterations: 3, Theta0: 0.5}
}

func (s emSize) config(seed uint64) core.EMConfig {
	return core.EMConfig{InitialTheta: s.Theta0, Iterations: s.Iterations, Burnin: s.Burnin, Samples: s.Samples, Seed: seed, ESSTarget: s.ESSTarget}
}

// emEngine is one built estimation pipeline: what mpcgs.Run assembles
// before it calls core.RunEM.
type emEngine struct {
	dev  *device.Device
	ev   *felsen.Evaluator
	init *gtree.Tree
	gmh  *core.GMH
}

// buildEM simulates the workload's alignment and builds its pipeline.
func buildEM(sz emSize, dataSeed, seed uint64, workers int) (*emEngine, error) {
	aln, _, err := seqgen.SimulateData(sz.Data.Taxa, sz.Data.BP, trueTheta, dataSeed)
	if err != nil {
		return nil, err
	}
	return newEngine(aln, sz, seed, workers)
}

// newEngine builds the pipeline for aln on a fresh device of workers
// workers; the caller closes e.dev.
func newEngine(aln *phylip.Alignment, sz emSize, seed uint64, workers int) (*emEngine, error) {
	dev := device.New(workers)
	ev, err := newEvaluator(aln, dev)
	if err != nil {
		dev.Close()
		return nil, err
	}
	init, err := core.InitialTree(aln, sz.Theta0, seed)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return &emEngine{dev: dev, ev: ev, init: init, gmh: core.NewGMH(ev, dev, sz.N)}, nil
}

func (e *emEngine) estimate(sz emSize, seed uint64) (*core.EMResult, error) {
	return core.RunEM(e.gmh, e.init, sz.config(seed), e.dev)
}

// estimatePasses runs the loop core.RunEM runs (StartEM, then Step until
// done) and hands each EM iteration's sample set to pass as it completes.
func (e *emEngine) estimatePasses(sz emSize, seed uint64, pass func(*core.SampleSet)) (*core.EMResult, error) {
	run, err := core.StartEM(e.gmh, e.init, sz.config(seed), e.dev)
	if err != nil {
		return nil, err
	}
	seen := 0
	for !run.Done() {
		if err := run.Step(); err != nil {
			return nil, err
		}
		if r, err := run.Result(); err == nil && len(r.History) > seen {
			seen = len(r.History)
			pass(r.LastSet)
		}
	}
	return run.Result()
}

func runEMPaper(o *options) (*outcome, error) {
	sz := emPaperSize(o.Smoke)
	out := newOutcome()
	dataSeed, pat, err := sz.Data.pick(o.DataSeed)
	if err != nil {
		return nil, err
	}
	out.Shape = shape{Taxa: sz.Data.Taxa, BP: sz.Data.BP, Patterns: pat, N: sz.N, Workers: sz.Workers, DataSeed: dataSeed}
	setup := &setupTimer{build: func() (func(), error) {
		e, err := buildEM(sz, dataSeed, o.Seed, sz.Workers)
		if err != nil {
			return nil, err
		}
		return e.dev.Close, nil
	}}
	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	eng, err := buildEM(sz, dataSeed, o.Seed, sz.Workers)
	if err != nil {
		return nil, err
	}
	defer eng.dev.Close()
	if o.Trace {
		return out, traceEMPaper(o, sz, eng, dataSeed, out)
	}

	var walls, raw, cpus []float64
	var essSum, tmrcaSum float64
	var drawSum float64
	var ref *core.EMResult
	end := o.deadline()
	for i := 0; i == 0 || (!o.Smoke && time.Now().Before(end)); i++ {
		var passes []*core.SampleSet
		mt := startMeter()
		res, err := eng.estimatePasses(sz, unitSeed(o.Seed, i), func(s *core.SampleSet) { passes = append(passes, s) })
		rawWall, cpu, wall := mt.stop()
		if err != nil {
			out.check(false, "estimation %d: %v", i, err)
			continue
		}
		checkEstimate(out, i, res)
		walls, raw, cpus = append(walls, wall), append(raw, rawWall), append(cpus, cpu)
		for _, s := range passes {
			essSum += statESS(s)
		}
		tmrcaSum += tmrcaESS(res.LastSet)
		drawSum += float64(len(res.History) * (sz.Burnin + sz.Samples))
		if i == 0 {
			ref = res
		}
	}
	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup.median()
	if ref == nil {
		return out, nil
	}
	// The same inputs must give a bit-identical estimate and draw stream,
	// and the public entry point must agree with the composed pipeline.
	again, err := eng.estimate(sz, unitSeed(o.Seed, 0))
	out.check(err == nil && again.Theta == ref.Theta && hashSamples(again.LastSet) == hashSamples(ref.LastSet),
		"estimation 0 is not reproducible")
	pub, err := mpcgs.SimulateAlignment(sz.Data.Taxa, sz.Data.BP, trueTheta, dataSeed)
	if err == nil {
		var r *mpcgs.Result
		r, err = mpcgs.Run(mpcgs.Config{Alignment: pub, InitialTheta: sz.Theta0, Workers: sz.Workers, Proposals: sz.N,
			Burnin: sz.Burnin, Samples: sz.Samples, EMIterations: sz.Iterations, Seed: unitSeed(o.Seed, 0)})
		out.check(err == nil && r.Theta == ref.Theta, "mpcgs.Run disagrees with core.RunEM: %v", err)
	} else {
		out.check(false, "simulating the public alignment: %v", err)
	}

	total := 0.0
	for _, w := range walls {
		total += w
	}
	// Means, not medians: an estimation's M-step either converges in a
	// few ascent iterations or runs to its cap, so the per-estimation cost
	// is bimodal and its median jumps between the modes from run to run.
	out.Metrics["wall_s"] = total / float64(len(walls))
	out.Metrics["cpu_s"] = mean(cpus)
	out.Metrics["ess_per_s"] = essSum / total
	out.Metrics["draws_per_s"] = drawSum / total
	out.Metrics["jobs_per_s"] = float64(len(walls)) / total
	out.Report["wall_s"] = summarize(walls)
	out.Report["raw_wall_s"] = summarize(raw)
	out.Report["cpu_s"] = summarize(cpus)
	out.Report["tmrca_ess_per_s"] = tmrcaSum / total
	out.Report["theta_hex"] = hexFloat(ref.Theta)
	out.Report["draw_hash"] = hashHex(hashSamples(ref.LastSet))
	out.Report["em_iterations"] = len(ref.History)
	return out, nil
}

// checkEstimate applies the output checks every estimation must pass.
func checkEstimate(out *outcome, i int, res *core.EMResult) {
	out.check(plausibleTheta(res.Theta), "estimation %d: theta %v outside %v", i, res.Theta, thetaBand)
	out.check(len(res.History) > 0 && res.LastSet != nil && validDraws(res.LastSet), "estimation %d: invalid final pass", i)
}

// tracedEstimate is core.RunEM composed from its exported steps, with a
// span around each sampling pass, GMH round and M-step.
type tracedEstimate struct {
	Theta      float64
	Iterations int
	Last       *core.Result
	FirstHash  uint64  // draw stream of the first pass
	FirstRound float64 // summed round time of the first pass, seconds
	Rounds     int
	Accepted   int
	Proposals  int
	Failed     int
	Launches   int64
	Threads    int64
}

func traceEstimate(rec *recorder, e *emEngine, sz emSize, seed uint64) (*tracedEstimate, error) {
	te := &tracedEstimate{}
	root := rec.open("bench.estimate", -1)
	defer rec.close(root)
	theta, cur := sz.Theta0, e.init
	for it := 0; it < sz.Iterations; it++ {
		cfg := core.ChainConfig{Theta: theta, Burnin: sz.Burnin, Samples: sz.Samples, Seed: seed + uint64(it)*0x9e3779b9, ESSTarget: sz.ESSTarget}
		pass := rec.open("core.pass", root)
		l0, t0 := e.dev.Stats()
		st, err := e.gmh.Start(cur, cfg)
		if err != nil {
			return nil, err
		}
		var roundSum int64
		for !st.Done() {
			r := rec.open("core.round", pass)
			err := st.Step()
			rec.close(r)
			if err != nil {
				return nil, err
			}
			roundSum += rec.spans[r].End - rec.spans[r].Start
			te.Rounds++
		}
		res, err := st.Finish()
		if err != nil {
			return nil, err
		}
		l1, t1 := e.dev.Stats()
		rec.close(pass)
		te.Launches += l1 - l0
		te.Threads += t1 - t0
		te.Accepted += res.Accepted
		te.Proposals += res.Proposals
		te.Failed += res.FailedProposals
		if it == 0 {
			te.FirstHash = hashSamples(res.Samples)
			te.FirstRound = float64(roundSum) / 1e9
		}
		ms := rec.open("core.mstep", root)
		next, err := core.MaximizeTheta(res.Samples, core.MLEConfig{}, e.dev)
		rec.close(ms)
		if err != nil {
			return nil, err
		}
		moved := math.Abs(next-theta) / theta
		theta, cur, te.Last = next, res.Final, res
		te.Iterations++
		if moved < 1e-3 { // core.EMConfig's default tolerance
			break
		}
	}
	te.Theta = theta
	return te, nil
}

func traceEMPaper(o *options, sz emSize, eng *emEngine, dataSeed uint64, out *outcome) error {
	rec := newRecorder()
	var plain, traced float64
	var ref *core.EMResult
	var first *tracedEstimate
	var iters []float64
	var acc, props, failed, rounds int
	var launches, threads int64
	end := time.Now().Add(time.Duration(0.7 * o.Seconds * float64(time.Second)))
	for i := 0; i == 0 || (!o.Smoke && time.Now().Before(end)); i++ {
		seed := unitSeed(o.Seed, i)
		t0 := time.Now()
		res, err := eng.estimate(sz, seed)
		plain += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		t0 = time.Now()
		te, err := traceEstimate(rec, eng, sz, seed)
		traced += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		checkEstimate(out, i, res)
		out.check(te.Theta == res.Theta && hashSamples(te.Last.Samples) == hashSamples(res.LastSet),
			"estimation %d: traced composition differs from core.RunEM", i)
		iters = append(iters, float64(te.Iterations))
		acc, props, failed, rounds = acc+te.Accepted, props+te.Proposals, failed+te.Failed, rounds+te.Rounds
		launches, threads = launches+te.Launches, threads+te.Threads
		if i == 0 {
			ref, first = res, te
		}
	}

	// Inner split of the first pass of estimation 0, replayed.
	rp, err := replayGMH(eng.ev, eng.dev, eng.init, sz.Theta0, sz.N, sz.Burnin, sz.Samples, unitSeed(o.Seed, 0))
	if err != nil {
		return err
	}
	out.check(rp.Hash == first.FirstHash, "replayed pass differs from the production pass")

	// workers=1 must reproduce workers=N bit for bit.
	t0 := time.Now()
	base, err := eng.estimate(sz, unitSeed(o.Seed, 0))
	wN := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	one, err := buildEM(sz, dataSeed, o.Seed, 1)
	if err != nil {
		return err
	}
	t0 = time.Now()
	r1, err := one.estimate(sz, unitSeed(o.Seed, 0))
	w1 := time.Since(t0).Seconds()
	one.dev.Close()
	out.check(err == nil && r1.Theta == base.Theta && hashSamples(r1.LastSet) == hashSamples(base.LastSet),
		"workers=1 estimate differs from workers=%d", sz.Workers)

	m := out.Metrics
	rounds64 := float64(rounds)
	m["core.round_us"] = median(durations(rec.spans, "core.round")) * 1e6
	m["core.mstep_s"] = median(durations(rec.spans, "core.mstep"))
	m["core.rel_loglik_us"] = relLogLikUs(ref.LastSet, eng.dev)
	m["core.mstep_evals_est"] = m["core.mstep_s"] * 1e6 / m["core.rel_loglik_us"]
	m["core.accept_ratio"] = float64(acc) / float64(props)
	m["core.em_iterations"] = median(iters)
	estimateWall := sumDur(rec.spans, "bench.estimate")
	m["core.mstep_share"] = sumDur(rec.spans, "core.mstep") / estimateWall
	m["core.replay_gap_share"] = sumDur(rp.Spans, "bench.round")/first.FirstRound - 1
	m["resim.failed_ratio"] = float64(failed) / float64(props)
	m["felsen.rebase_full_ms"] = rebaseFullMs(eng.ev, eng.init)
	m["device.launches_per_round"] = float64(launches) / rounds64
	m["device.threads_per_round"] = float64(threads) / rounds64
	m["device.speedup_1_to_n"] = w1 / wN
	rp.fill(out, sumDur(rec.spans, "core.round")/estimateWall)
	_, unattributed := attribution(rec.spans)
	m["bench.unattributed_share"] = unattributed
	m["bench.tracing_overhead"] = traced/plain - 1
	out.Report["estimations"] = len(iters)
	out.Report["mstep_s"] = summarize(durations(rec.spans, "core.mstep"))
	out.Report["round_us"] = summarize(scale(durations(rec.spans, "core.round"), 1e6))
	return nil
}

// relLogLikUs is the median time of one core.RelLogLikelihood over a
// pass's post-burn-in draws, in microseconds.
func relLogLikUs(s *core.SampleSet, dev *device.Device) float64 {
	var ts []float64
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		core.RelLogLikelihood(s, s.Theta0*(1+float64(i)*1e-3), dev)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts) * 1e6
}

// rebaseFullMs is the median time of a full likelihood rebase of t onto a
// fresh delta cache, in milliseconds.
func rebaseFullMs(ev *felsen.Evaluator, t *gtree.Tree) float64 {
	var ts []float64
	for i := 0; i < 21; i++ {
		c := ev.NewDeltaCache()
		t0 := time.Now()
		ev.Rebase(c, t)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts) * 1e3
}
