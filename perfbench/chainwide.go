package main

import (
	"time"

	"mpcgs/internal/core"
)

// chainSize is the chain-wide workload's shape.
type chainSize struct {
	Data                        dataSpec
	N, Workers, Burnin, Samples int
	Theta                       float64
}

// chainWideSize is one GMH sampling pass at fixed driving θ = 1 over a
// 32-taxon × 4000 bp alignment pinned to 2803 ± 3% site patterns (the
// count at data seed 20160401), N = 8 proposals on 2 workers: the unit
// the paper's §6 times, with no M-step.
func chainWideSize(smoke bool) chainSize {
	if smoke {
		return chainSize{Data: dataSpec{Taxa: 8, BP: 400, PatLo: 1, PatHi: 1 << 30}, N: 4, Workers: 2, Burnin: 20, Samples: 80, Theta: 1}
	}
	return chainSize{Data: dataSpec{Taxa: 32, BP: 4000, PatLo: 2719, PatHi: 2887}, N: 8, Workers: 2, Burnin: 400, Samples: 2000, Theta: 1}
}

func (s chainSize) config(seed uint64) core.ChainConfig {
	return core.ChainConfig{Theta: s.Theta, Burnin: s.Burnin, Samples: s.Samples, Seed: seed}
}

func (s chainSize) emSize() emSize {
	return emSize{Data: s.Data, N: s.N, Workers: s.Workers, Theta0: s.Theta}
}

// passStats is what one pass reports beyond its draws.
type passStats struct {
	res               *core.Result
	wall, cpu, net    float64 // net: wall net of steal
	launches, threads int64
	rounds            int
}

// runPass drives one GMH pass through GMH.Start/Step/Finish. With a
// recorder it wraps the pass, its start, each round and its finish in
// spans.
func runPass(rec *recorder, e *emEngine, cfg core.ChainConfig) (*passStats, error) {
	ps := &passStats{}
	l0, t0 := e.dev.Stats()
	mt := startMeter()
	root := rec.open("bench.pass", -1)
	sp := rec.open("core.start", root)
	st, err := e.gmh.Start(e.init, cfg)
	rec.close(sp)
	if err != nil {
		return nil, err
	}
	for !st.Done() {
		r := rec.open("core.round", root)
		err := st.Step()
		rec.close(r)
		if err != nil {
			return nil, err
		}
		ps.rounds++
	}
	sp = rec.open("core.finish", root)
	ps.res, err = st.Finish()
	rec.close(sp)
	rec.close(root)
	ps.wall, ps.cpu, ps.net = mt.stop()
	if err != nil {
		return nil, err
	}
	l1, t1 := e.dev.Stats()
	ps.launches, ps.threads = l1-l0, t1-t0
	return ps, nil
}

func checkPass(out *outcome, i int, sz chainSize, ps *passStats) {
	s := ps.res.Samples
	out.check(s.Len() == sz.Burnin+sz.Samples && validDraws(s), "pass %d: %d invalid or missing draws", i, s.Len())
	out.check(ps.res.Accepted > 0 && ps.res.Accepted <= ps.res.Proposals, "pass %d: accepted %d of %d proposals", i, ps.res.Accepted, ps.res.Proposals)
}

func runChainWide(o *options) (*outcome, error) {
	sz := chainWideSize(o.Smoke)
	out := newOutcome()
	dataSeed, pat, err := sz.Data.pick(o.DataSeed)
	if err != nil {
		return nil, err
	}
	out.Shape = shape{Taxa: sz.Data.Taxa, BP: sz.Data.BP, Patterns: pat, N: sz.N, Workers: sz.Workers, DataSeed: dataSeed}
	setup := &setupTimer{build: func() (func(), error) {
		e, err := buildEM(sz.emSize(), dataSeed, o.Seed, sz.Workers)
		if err != nil {
			return nil, err
		}
		// The full likelihood of the starting genealogy, which every
		// chain computes before its first round.
		e.ev.Rebase(e.ev.NewDeltaCache(), e.init)
		return e.dev.Close, nil
	}}
	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	eng, err := buildEM(sz.emSize(), dataSeed, o.Seed, sz.Workers)
	if err != nil {
		return nil, err
	}
	defer eng.dev.Close()
	if o.Trace {
		return out, traceChainWide(o, sz, eng, dataSeed, out)
	}

	var walls, raw, cpus []float64
	var essSum, tmrcaSum float64
	var drawSum float64
	var ref uint64
	end := o.deadline()
	for i := 0; i == 0 || (!o.Smoke && time.Now().Before(end)); i++ {
		ps, err := runPass(nil, eng, sz.config(unitSeed(o.Seed, i)))
		if err != nil {
			out.check(false, "pass %d: %v", i, err)
			continue
		}
		checkPass(out, i, sz, ps)
		walls, raw, cpus = append(walls, ps.net), append(raw, ps.wall), append(cpus, ps.cpu)
		essSum += statESS(ps.res.Samples)
		tmrcaSum += tmrcaESS(ps.res.Samples)
		drawSum += float64(ps.res.Samples.Len())
		if i == 0 {
			ref = hashSamples(ps.res.Samples)
		}
	}
	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup.median()
	again, err := runPass(nil, eng, sz.config(unitSeed(o.Seed, 0)))
	out.check(err == nil && hashSamples(again.res.Samples) == ref, "pass 0 is not reproducible")

	total := 0.0
	for _, w := range walls {
		total += w
	}
	out.Metrics["wall_s"] = median(walls)
	out.Metrics["cpu_s"] = median(cpus)
	out.Metrics["ess_per_s"] = essSum / total
	out.Metrics["draws_per_s"] = drawSum / total
	out.Metrics["jobs_per_s"] = float64(len(walls)) / total
	out.Report["wall_s"] = summarize(walls)
	out.Report["raw_wall_s"] = summarize(raw)
	out.Report["cpu_s"] = summarize(cpus)
	out.Report["draw_hash"] = hashHex(ref)
	out.Report["tmrca_ess_per_s"] = tmrcaSum / total
	return out, nil
}

func traceChainWide(o *options, sz chainSize, eng *emEngine, dataSeed uint64, out *outcome) error {
	rec := newRecorder()
	var plain, traced, gmhESS float64
	var acc, props, failed, rounds int
	var launches, threads int64
	var first *passStats
	end := time.Now().Add(time.Duration(0.5 * o.Seconds * float64(time.Second)))
	for i := 0; i == 0 || (!o.Smoke && time.Now().Before(end)); i++ {
		cfg := sz.config(unitSeed(o.Seed, i))
		p, err := runPass(nil, eng, cfg)
		if err != nil {
			return err
		}
		t, err := runPass(rec, eng, cfg)
		if err != nil {
			return err
		}
		checkPass(out, i, sz, t)
		out.check(hashSamples(t.res.Samples) == hashSamples(p.res.Samples), "pass %d: traced pass differs from untraced", i)
		plain += p.wall
		traced += t.wall
		gmhESS += statESS(p.res.Samples)
		acc, props, failed, rounds = acc+t.res.Accepted, props+t.res.Proposals, failed+t.res.FailedProposals, rounds+t.rounds
		launches, threads = launches+t.launches, threads+t.threads
		if i == 0 {
			first = t
		}
	}
	seed0 := unitSeed(o.Seed, 0)
	firstRounds := sumDurChildren(rec.spans, "core.round", 0)
	rp, err := replayGMH(eng.ev, eng.dev, eng.init, sz.Theta, sz.N, sz.Burnin, sz.Samples, seed0)
	if err != nil {
		return err
	}
	out.check(rp.Hash == hashSamples(first.res.Samples), "replayed pass differs from the production pass")

	// workers=1 against workers=N: same draws, and the wall ratio of
	// warm passes run back to back.
	one, err := buildEM(sz.emSize(), dataSeed, o.Seed, 1)
	if err != nil {
		return err
	}
	defer one.dev.Close()
	var w1, wN []float64
	for rep := 0; rep < 2; rep++ {
		pN, err := runPass(nil, eng, sz.config(seed0))
		if err != nil {
			return err
		}
		p1, err := runPass(nil, one, sz.config(seed0))
		if err != nil {
			return err
		}
		out.check(hashSamples(p1.res.Samples) == hashSamples(first.res.Samples), "workers=1 pass differs from workers=%d", sz.Workers)
		w1, wN = append(w1, p1.wall), append(wN, pN.wall)
	}

	// The paper's headline comparison as ESS per second: serial MH on the
	// same data, θ, draw count and seeds, for the rest of the budget.
	mh := core.NewMH(eng.ev)
	var mhESS, mhWall float64
	end = time.Now().Add(time.Duration(0.3 * o.Seconds * float64(time.Second)))
	for i := 0; i == 0 || (!o.Smoke && time.Now().Before(end)); i++ {
		t0 := time.Now()
		res, err := mh.Run(eng.init, sz.config(unitSeed(o.Seed, i)))
		mhWall += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		out.check(validDraws(res.Samples), "MH pass %d: invalid draws", i)
		mhESS += statESS(res.Samples)
	}

	m := out.Metrics
	rounds64 := float64(rounds)
	m["core.round_us"] = median(durations(rec.spans, "core.round")) * 1e6
	m["core.accept_ratio"] = float64(acc) / float64(props)
	m["core.replay_gap_share"] = sumDur(rp.Spans, "bench.round")/firstRounds - 1
	m["core.ess_per_s_gmh_over_mh"] = (gmhESS / plain) / (mhESS / mhWall)
	m["resim.failed_ratio"] = float64(failed) / float64(props)
	m["felsen.rebase_full_ms"] = rebaseFullMs(eng.ev, eng.init)
	m["device.launches_per_round"] = float64(launches) / rounds64
	m["device.threads_per_round"] = float64(threads) / rounds64
	m["device.speedup_1_to_n"] = median(w1) / median(wN)
	rp.fill(out, sumDur(rec.spans, "core.round")/sumDur(rec.spans, "bench.pass"))
	_, unattributed := attribution(rec.spans)
	m["bench.unattributed_share"] = unattributed
	m["bench.tracing_overhead"] = traced/plain - 1
	out.Report["passes"] = len(durations(rec.spans, "bench.pass"))
	out.Report["round_us"] = summarize(scale(durations(rec.spans, "core.round"), 1e6))
	out.Report["gmh_ess_per_s"] = gmhESS / plain
	out.Report["mh_ess_per_s"] = mhESS / mhWall
	return nil
}
