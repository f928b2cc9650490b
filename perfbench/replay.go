package main

import (
	"fmt"
	"time"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/logspace"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
)

// replayResult is the inner split of a GMH pass, from a replay of its
// rounds built out of the exported calls the production stepper makes.
type replayResult struct {
	Rounds    int
	Proposals int
	Failed    int
	Accepted  int
	Hash      uint64  // digest of the replayed draw stream
	Spans     []span  // root per round, one child per layer call
	ResimNs   float64 // summed duration of every ResimulateScratch call
	Cells     float64 // live candidates × patterns, summed over rounds
	Patterns  int
}

// hostSource is the GMH host generator for a chain seed: the same
// SplitMix64-keyed MT19937 the sampler derives (label 2).
func hostSource(seed uint64) *rng.MT19937 {
	const label = 2
	state := seed ^ 0x5851f42d4c957f2d*label
	v := rng.SplitMix64(&state)
	m := &rng.MT19937{}
	m.SeedArray([]uint32{uint32(v), uint32(v >> 32), uint32(label)})
	return m
}

// sumKKT is Σ k(k−1)·t_k over a genealogy's coalescent intervals, the
// statistic the sampler records per draw.
func sumKKT(nTips int, ages []float64) float64 {
	s, prev, k := 0.0, 0.0, nTips
	for _, a := range ages {
		s += float64(k*(k-1)) * (a - prev)
		prev = a
		k--
	}
	return s
}

// replayGMH replays a GMH pass of burnin+samples draws at fixed θ from
// init with n proposals per round, timing each layer call: resim.pick
// (resim.PickTarget), resim.launch (device.Launch of the resimulation
// kernel), felsen.lift (Wave.BindRound), felsen.wave (Wave.Eval),
// core.select (rng.LogCategorical draws) and felsen.rebase_to
// (Evaluator.RebaseTo). Its draw-stream digest must equal the production
// pass's at the same seed.
func replayGMH(ev *felsen.Evaluator, dev *device.Device, init *gtree.Tree, theta float64, n, burnin, samples int, seed uint64) (*replayResult, error) {
	rec := newRecorder()
	res := &replayResult{Patterns: ev.NPatterns()}
	host := hostSource(seed)
	streams := rng.NewStreamSet(n, seed^0x9e3779b97f4a7c15)
	scratches := make([]*resim.Scratch, n)
	for i := range scratches {
		scratches[i] = resim.NewScratch()
	}
	set := make([]*gtree.Tree, n+1)
	for i := range set {
		set[i] = init.Clone()
	}
	logw := make([]float64, n+1)
	stat := make([]float64, n+1)
	ages := make([][]float64, n+1)
	errs := make([]error, n)
	resimNs := make([]int64, n)
	cur := 0
	cache := ev.NewDeltaCache()
	logw[cur] = ev.Rebase(cache, set[cur])
	wave := ev.NewWave(cache)
	waveTrees := make([]*gtree.Tree, n+1)
	ages[cur] = set[cur].CoalescentAgesInto(ages[cur])
	stat[cur] = sumKKT(init.NTips(), ages[cur])

	var phi int
	slots := make([]int, 0, n)
	kernel := func(tid int) {
		i := slots[tid]
		p := set[i]
		p.CopyFrom(set[cur])
		t0 := time.Now()
		errs[tid] = resim.ResimulateScratch(p, phi, theta, streams.Stream(tid), scratches[tid])
		resimNs[tid] += int64(time.Since(t0))
		if errs[tid] != nil {
			logw[i] = logspace.NegInf
			return
		}
		ages[i] = p.CoalescentAgesInto(ages[i])
		stat[i] = sumKKT(init.NTips(), ages[i])
	}

	hash := newDrawHasher()
	total, recorded := burnin+samples, 0
	for recorded < total {
		round := rec.open("bench.round", -1)
		sp := rec.open("resim.pick", round)
		phi = resim.PickTarget(set[cur], host)
		rec.close(sp)
		slots = slots[:0]
		for i := 0; i <= n; i++ {
			if i != cur {
				slots = append(slots, i)
			}
		}
		sp = rec.open("resim.launch", round)
		dev.Launch(n, kernel)
		rec.close(sp)
		res.Proposals += n
		live := 0
		for tid, i := range slots {
			if errs[tid] != nil {
				res.Failed++
				waveTrees[i] = nil
			} else {
				waveTrees[i] = set[i]
				live++
			}
		}
		waveTrees[cur] = nil
		sp = rec.open("felsen.lift", round)
		wave.BindRound(phi)
		rec.close(sp)
		sp = rec.open("felsen.wave", round)
		wave.Eval(waveTrees, logw)
		rec.close(sp)
		res.Cells += float64(live * res.Patterns)

		sp = rec.open("core.select", round)
		last := cur
		for k := 0; k < n && recorded < total; k++ {
			idx := rng.LogCategorical(host, logw)
			if idx != last {
				res.Accepted++
			}
			last = idx
			hash.add(stat[idx], ages[idx], logw[idx])
			recorded++
		}
		rec.close(sp)
		if last != cur {
			cur = last
			sp = rec.open("felsen.rebase_to", round)
			ev.RebaseTo(cache, set[cur])
			rec.close(sp)
		}
		rec.close(round)
		res.Rounds++
	}
	for _, ns := range resimNs {
		res.ResimNs += float64(ns)
	}
	res.Hash = hash.h
	res.Spans = rec.spans
	if res.Rounds == 0 {
		return nil, fmt.Errorf("replay recorded no rounds")
	}
	return res, nil
}

// callShare is the share of the replay's wall spent in calls named name.
func (r *replayResult) callShare(name string) float64 {
	var wall, in float64
	for _, s := range r.Spans {
		d := float64(s.End - s.Start)
		if s.Parent < 0 {
			wall += d
		} else if s.Name == name {
			in += d
		}
	}
	return in / wall
}

// fill reports the replay's per-call costs. roundShare is the share of
// the workload's unit wall time spent in GMH rounds, which scales the
// replay's layer shares to shares of the unit.
func (r *replayResult) fill(out *outcome, roundShare float64) {
	m := out.Metrics
	m["resim.ns_per_proposal"] = r.ResimNs / float64(r.Proposals)
	m["felsen.patterns"] = float64(r.Patterns)
	m["felsen.wave_ns_per_cell"] = sumDur(r.Spans, "felsen.wave") * 1e9 / r.Cells
	m["felsen.lift_us"] = median(durations(r.Spans, "felsen.lift")) * 1e6
	if d := durations(r.Spans, "felsen.rebase_to"); len(d) > 0 {
		m["felsen.rebase_to_us"] = median(d) * 1e6
	}
	m["felsen.wave_share"] = r.callShare("felsen.wave") * roundShare
	m["felsen.lift_share"] = r.callShare("felsen.lift") * roundShare
	m["resim.share"] = (r.callShare("resim.launch") + r.callShare("resim.pick")) * roundShare
	out.Report["replay_rounds"] = r.Rounds
	out.Report["replay_round_us"] = summarize(scale(durations(r.Spans, "bench.round"), 1e6))
	shares, _ := attribution(r.Spans)
	out.Report["replay_layer_shares"] = shares
}
