package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
	"mpcgs/internal/sched"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/serve"
	"mpcgs/internal/stats"
	"mpcgs/internal/trace"
)

// serviceSize is the service-mix workload's shape: small GMH jobs
// (8 taxa × 120 bp, one EM iteration) from a closed loop of clients,
// half of them with an ESS target so the online diagnostics can retire
// them early. The short checkpoint cadence makes every job journal,
// snapshot and write sidecar frames several times.
type serviceSize struct {
	Data                    dataSpec
	Alignments              int
	Clients                 int
	Workers, Quantum, Every int
	N, Burnin, Samples      int
	Theta0, ESSTarget       float64
	Poll                    time.Duration
}

func serviceMixSize(smoke bool) serviceSize {
	s := serviceSize{
		Data:       dataSpec{Taxa: 8, BP: 120, PatLo: 1, PatHi: 1 << 30},
		Alignments: 8, Clients: 2,
		Workers: 2, Quantum: 10, Every: 10,
		N: 4, Burnin: 100, Samples: 400,
		Theta0: 0.5, ESSTarget: 15,
		Poll: 2 * time.Millisecond,
	}
	if smoke {
		s.Alignments, s.Burnin, s.Samples = 2, 20, 60
	}
	return s
}

// daemon is one running engine: serve.New behind net/http on loopback
// with a fresh state directory.
type daemon struct {
	dir  string
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(root string, sz serviceSize) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{StateDir: dir, Workers: sz.Workers, Quantum: sz.Quantum, CheckpointEvery: sz.Every})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener and the engine down, waits for both, and
// removes the state directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// jobView is the part of the API's job representation the clients read.
type jobView struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Steps     int    `json:"steps"`
	Converged bool   `json:"converged"`
	Error     string `json:"error"`
	Theta     string `json:"theta"`
	ThetaHex  string `json:"theta_hex"`
}

// jobRecord is what the clients measured about one job.
type jobRecord struct {
	Name, ID    string
	SubmitMs    float64
	StatusMs    []float64
	QueueWaitMs float64
	RunMs       float64
	LatencyMs   float64 // 202 received → terminal status observed
	View        jobView
	OK          bool
	Problem     string
	// Snapshot is a copy of the job's checkpoint file taken mid-run
	// (traced runs only), for timing ckpt.Save on the job's own state.
	Snapshot []byte
}

type client struct {
	http     *http.Client
	url      string
	stateDir string
	sz       serviceSize
}

func (c *client) do(method, path string, body []byte, into any) (int, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return resp.StatusCode, ms, err
	}
	if into != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, into); err != nil {
			return resp.StatusCode, ms, err
		}
	}
	return resp.StatusCode, ms, nil
}

// submitRequest mirrors the POST /v1/jobs body fields the workload sets.
type submitRequest struct {
	Name         string  `json:"name"`
	Tenant       string  `json:"tenant"`
	Phylip       string  `json:"phylip"`
	Theta        float64 `json:"theta"`
	Proposals    int     `json:"proposals"`
	Burnin       int     `json:"burnin"`
	Samples      int     `json:"samples"`
	EMIterations int     `json:"em_iterations"`
	Seed         uint64  `json:"seed"`
	ESSTarget    float64 `json:"ess_target,omitempty"`
}

// runJob submits one job, polls its status until it is terminal, and
// fetches its result. Every timing is client-side; spans follow the
// job through submit, queue wait and run.
func (c *client) runJob(req submitRequest, rejected *int, rec *recorder) jobRecord {
	jr := jobRecord{Name: req.Name}
	root := rec.open("bench.job", -1)
	body, _ := json.Marshal(req)
	var accepted jobView
	for {
		sp := rec.open("serve.submit", root)
		code, ms, err := c.do("POST", "/v1/jobs", body, &accepted)
		rec.close(sp)
		jr.SubmitMs = ms
		if err != nil {
			jr.Problem = fmt.Sprintf("submit: %v", err)
			return jr
		}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			*rejected++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if code != http.StatusAccepted {
			jr.Problem = fmt.Sprintf("submit: status %d", code)
			return jr
		}
		break
	}
	jr.ID = accepted.ID
	acceptedAt := time.Now()
	phase := rec.open("sched.queue_wait", root)
	running := false
	for {
		var v jobView
		sp := rec.open("serve.status", phase)
		code, ms, err := c.do("GET", "/v1/jobs/"+jr.ID, nil, &v)
		rec.close(sp)
		jr.StatusMs = append(jr.StatusMs, ms)
		if err != nil || code != http.StatusOK {
			jr.Problem = fmt.Sprintf("status: %d %v", code, err)
			return jr
		}
		st := sched.TicketStatus(v.Status)
		if rec != nil && jr.Snapshot == nil && st == sched.TicketRunning && v.Steps >= c.sz.Every {
			// Checkpoints are replaced by rename, so a read sees a whole one.
			jr.Snapshot, _ = os.ReadFile(ckpt.Path(filepath.Join(c.stateDir, "jobs", jr.ID, "ckpt")))
		}
		if !running && st != sched.TicketQueued {
			running = true
			rec.close(phase)
			jr.QueueWaitMs = float64(time.Since(acceptedAt)) / 1e6
			phase = rec.open("sched.run", root)
		}
		if st.Terminal() {
			rec.close(phase)
			jr.LatencyMs = float64(time.Since(acceptedAt)) / 1e6
			jr.RunMs = jr.LatencyMs - jr.QueueWaitMs
			break
		}
		time.Sleep(c.sz.Poll)
	}
	sp := rec.open("serve.result", root)
	code, _, err := c.do("GET", "/v1/jobs/"+jr.ID+"/result", nil, &jr.View)
	rec.close(sp)
	rec.close(root)
	switch {
	case err != nil || code != http.StatusOK:
		jr.Problem = fmt.Sprintf("result: %d %v", code, err)
	case jr.View.Status != string(sched.TicketDone) || jr.View.ThetaHex == "":
		jr.Problem = fmt.Sprintf("job ended %s without a result: %s", jr.View.Status, jr.View.Error)
	default:
		t, perr := ckpt.ParseHexFloat(jr.View.ThetaHex)
		if perr != nil || !(t > 0) || math.IsInf(t, 0) {
			jr.Problem = fmt.Sprintf("result theta %q is not finite and positive", jr.View.ThetaHex)
		} else {
			jr.OK = true
		}
	}
	return jr
}

// phylipText renders an alignment as the submission body carries it.
func phylipText(a *phylip.Alignment) (string, error) {
	var sb strings.Builder
	err := phylip.Write(&sb, a)
	return sb.String(), err
}

func runServiceMix(o *options) (*outcome, error) {
	sz := serviceMixSize(o.Smoke)
	out := newOutcome()
	root := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	alignments := func() ([]string, error) {
		var texts []string
		for j := 0; j < sz.Alignments; j++ {
			a, _, err := seqgen.SimulateData(sz.Data.Taxa, sz.Data.BP, trueTheta, candidateSeed(o.DataSeed, j))
			if err != nil {
				return nil, err
			}
			t, err := phylipText(a)
			if err != nil {
				return nil, err
			}
			texts = append(texts, t)
		}
		return texts, nil
	}
	setup := &setupTimer{build: func() (func(), error) {
		if _, err := alignments(); err != nil {
			return nil, err
		}
		d, err := startDaemon(root, sz)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	}}
	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	texts, err := alignments()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(root, sz)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pat, err := poolPatterns(texts)
	if err != nil {
		return nil, err
	}
	out.Shape = shape{Taxa: sz.Data.Taxa, BP: sz.Data.BP, Patterns: pat, N: sz.N, Workers: sz.Workers, DataSeed: o.DataSeed}

	mix := &serviceMix{sz: sz, d: d, texts: texts, seed: o.Seed}
	budget := o.Seconds
	if o.Trace {
		budget = 0.4 * o.Seconds
	}
	st := mix.stream(budget, o.Smoke, nil)
	var ref *jobRecord
	var essSum, draws float64
	for i := range st.jobs {
		jr := &st.jobs[i]
		out.check(jr.OK, "job %s: %s", jr.Name, jr.Problem)
		if !jr.OK {
			continue
		}
		ess, n, err := sidecarESS(d.dir, *jr, sz.Burnin)
		essSum += ess
		out.check(err == nil && n > 0, "job %s: sidecar: %v", jr.Name, err)
		draws += float64(n)
		if jr.Name == "j0" {
			ref = jr
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("job j0 did not complete")
	}
	// The same spec must give the same estimate, bit for bit.
	again := mix.request(0)
	again.Name = "j0-again"
	c := &client{http: &http.Client{Timeout: 60 * time.Second}, url: d.url, stateDir: d.dir, sz: sz}
	var rej int
	jr := c.runJob(again, &rej, nil)
	out.check(jr.OK && jr.View.ThetaHex == ref.View.ThetaHex, "resubmitted job j0: theta %s, first %s", jr.View.ThetaHex, ref.View.ThetaHex)

	if err := setup.measure(setupReps(o)); err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup.median()
	lat := st.latencies()
	n := float64(len(lat))
	// The mean, not the median: job latency is bimodal (an M-step either
	// converges in a few iterations or runs to its cap), and the median
	// jumps between the modes from run to run. Steal is removed at the
	// stream's rate.
	out.Metrics["wall_s"] = mean(lat) / 1e3 * st.net / st.makespan
	out.Metrics["cpu_s"] = st.cpu / n
	out.Metrics["ess_per_s"] = essSum / st.net
	out.Metrics["draws_per_s"] = draws / st.net
	out.Metrics["jobs_per_s"] = n / st.net
	if st.rssMB > 0 {
		out.Metrics["peak_rss_mb"] = st.rssMB
	}
	st.report(out)
	out.Report["theta_hex_j0"] = ref.View.ThetaHex
	if o.Trace {
		return out, traceServiceMix(o, mix, st, out)
	}
	return out, nil
}

// serviceMix is the closed-loop client side of the service-mix workload.
type serviceMix struct {
	sz    serviceSize
	d     *daemon
	texts []string
	seed  uint64
	next  int // index of the next job to submit
}

// request is the k-th job of the mix: odd jobs carry an ESS target.
func (m *serviceMix) request(k int) submitRequest {
	r := submitRequest{
		Name: fmt.Sprintf("j%d", k), Tenant: fmt.Sprintf("c%d", k%m.sz.Clients),
		Phylip: m.texts[k%len(m.texts)], Theta: m.sz.Theta0, Proposals: m.sz.N,
		Burnin: m.sz.Burnin, Samples: m.sz.Samples, EMIterations: 1, Seed: unitSeed(m.seed, k),
	}
	if k%2 == 1 {
		r.ESSTarget = m.sz.ESSTarget
	}
	return r
}

// rssAfterJobs is the job count at which service-mix reads its peak
// resident memory. The server keeps every job's record and result, so
// memory grows with the jobs completed; read at a fixed count, it does
// not also grow with throughput. Full-size runs complete over 300 jobs
// even at 24% steal.
const rssAfterJobs = 200

// streamResult is one closed-loop stretch of the mix.
type streamResult struct {
	jobs []jobRecord
	// rssMB is the peak resident memory when the rssAfterJobs-th job
	// finished (0 when fewer finished).
	rssMB         float64
	makespan, cpu float64
	// net is the makespan net of hypervisor steal (see netOfSteal).
	net      float64
	rejected int
}

// stream runs the closed loop: each client submits its next job once
// the previous one is done, until seconds have passed (one job per
// client in smoke mode). A non-nil rec traces every job.
func (m *serviceMix) stream(seconds float64, smoke bool, rec *recorder) *streamResult {
	var mu sync.Mutex
	var finished atomic.Int64
	res := &streamResult{}
	first := m.next
	mt := startMeter()
	end := mt.start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for cl := 0; cl < m.sz.Clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{http: &http.Client{Timeout: 60 * time.Second}, url: m.d.url, stateDir: m.d.dir, sz: m.sz}
			rej := 0
			var own *recorder
			if rec != nil {
				own = newRecorder()
			}
			var mine []jobRecord
			for {
				mu.Lock()
				k := m.next
				stop := (smoke && k-first >= m.sz.Clients) || (!smoke && k > first && !time.Now().Before(end))
				if !stop {
					m.next++
				}
				mu.Unlock()
				if stop {
					break
				}
				mine = append(mine, c.runJob(m.request(k), &rej, own))
				if finished.Add(1) == rssAfterJobs {
					res.rssMB = peakRSSMB()
				}
			}
			mu.Lock()
			res.jobs = append(res.jobs, mine...)
			res.rejected += rej
			if own != nil {
				rec.merge(own)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.makespan, res.cpu, res.net = mt.stop()
	return res
}

func (st *streamResult) latencies() []float64 {
	var out []float64
	for _, jr := range st.jobs {
		if jr.OK {
			out = append(out, jr.LatencyMs)
		}
	}
	return out
}

// report prints the client-side distributions of the stream.
func (st *streamResult) report(out *outcome) {
	var submit, status, queueWait, run []float64
	converged := 0
	for _, jr := range st.jobs {
		if !jr.OK {
			continue
		}
		submit = append(submit, jr.SubmitMs)
		status = append(status, jr.StatusMs...)
		queueWait = append(queueWait, jr.QueueWaitMs)
		run = append(run, jr.RunMs)
		if jr.View.Converged {
			converged++
		}
	}
	out.Report["job_latency_ms"] = summarize(st.latencies())
	out.Report["submit_latency_ms"] = summarize(submit)
	out.Report["status_latency_ms"] = summarize(status)
	out.Report["queue_wait_ms"] = summarize(queueWait)
	out.Report["run_ms"] = summarize(run)
	out.Report["converged_jobs"] = converged
	out.Report["rejected"] = st.rejected
	m := out.Metrics
	m["serve.submit_ms"] = median(submit)
	m["serve.status_ms"] = median(status)
	m["serve.rejected"] = float64(st.rejected)
	m["sched.queue_wait_ms"] = median(queueWait)
	m["sched.run_ms"] = median(run)
	m["sched.converged_jobs"] = float64(converged)
}

// poolPatterns is the median site-pattern count of the job alignments.
func poolPatterns(texts []string) (int, error) {
	dev := device.Serial()
	defer dev.Close()
	var pats []float64
	for _, t := range texts {
		aln, err := phylip.Read(strings.NewReader(t))
		if err != nil {
			return 0, err
		}
		ev, err := newEvaluator(aln, dev)
		if err != nil {
			return 0, err
		}
		pats = append(pats, float64(ev.NPatterns()))
	}
	return int(median(pats)), nil
}

// sidecarPath is where the queue streams a served job's draws.
func sidecarPath(stateDir string, jr jobRecord) string {
	return filepath.Join(stateDir, "jobs", jr.ID, "ckpt", sched.CheckpointKey(jr.Name)+".trace")
}

// sidecarESS reads a finished job's draws back from its trace sidecar
// and returns the ESS of the recorded statistic over its post-burn-in
// draws and the number of draws it recorded.
func sidecarESS(stateDir string, jr jobRecord, burnin int) (float64, int, error) {
	var xs []float64
	n := 0
	err := trace.Replay(sidecarPath(stateDir, jr), trace.HeaderSize, -1, func(stat float64, _ []float64, _ float64) error {
		if n >= burnin {
			xs = append(xs, stat)
		}
		n++
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return essOf(xs), n, nil
}

// traceServiceMix runs a traced stretch of the mix after the untraced
// one, then times the durable layers directly on a finished job's own
// snapshot, job record and draws, and the sampler layers on a job-sized
// pass.
func traceServiceMix(o *options, mix *serviceMix, plain *streamResult, out *outcome) error {
	sz := mix.sz
	rec := newRecorder()
	st := mix.stream(0.4*o.Seconds, o.Smoke, rec)
	// The reference job is the first one whose mid-run snapshot the
	// client caught, else the first that completed (its final snapshot).
	var ref *jobRecord
	for i := range st.jobs {
		jr := &st.jobs[i]
		out.check(jr.OK, "traced job %s: %s", jr.Name, jr.Problem)
		if jr.OK && (ref == nil || ref.Snapshot == nil && jr.Snapshot != nil) {
			ref = jr
		}
	}
	if ref == nil {
		return fmt.Errorf("no traced job completed")
	}
	out.Report["snapshot_mid_run"] = ref.Snapshot != nil
	st.report(out)
	m := out.Metrics
	m["bench.tracing_overhead"] = mean(st.latencies())/mean(plain.latencies()) - 1
	shares, unattributed := attribution(rec.spans)
	m["serve.share"] = shares["serve"]
	m["sched.share"] = shares["sched"]
	m["bench.unattributed_share"] = unattributed

	// Durable writes, replayed from the reference job's own files.
	tmp, err := os.MkdirTemp(filepath.Dir(mix.d.dir), "direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	jobDir := filepath.Join(mix.d.dir, "jobs", ref.ID)
	snapDir := filepath.Join(jobDir, "ckpt")
	if ref.Snapshot != nil {
		if err := os.WriteFile(ckpt.Path(tmp), ref.Snapshot, 0o644); err != nil {
			return err
		}
		snapDir = tmp
	}
	batch, err := ckpt.Load(snapDir)
	if err != nil {
		return fmt.Errorf("loading job %s checkpoint: %w", ref.ID, err)
	}
	jrec, err := ckpt.LoadJobRecord(jobDir)
	if err != nil {
		return fmt.Errorf("loading job %s record: %w", ref.ID, err)
	}
	var saves, records []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if err := ckpt.Save(tmp, batch); err != nil {
			return err
		}
		saves = append(saves, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if err := ckpt.SaveJobRecord(tmp, jrec); err != nil {
			return err
		}
		records = append(records, time.Since(t0).Seconds()*1e3)
	}
	fi, err := os.Stat(ckpt.Path(tmp))
	if err != nil {
		return err
	}
	m["ckpt.save_ms"] = median(saves)
	m["ckpt.snapshot_bytes"] = float64(fi.Size())
	m["ckpt.job_record_ms"] = median(records)

	type draw struct {
		stat, logLik float64
		ages         []float64
	}
	var draws []draw
	if err := trace.Replay(sidecarPath(mix.d.dir, *ref), trace.HeaderSize, -1, func(stat float64, ages []float64, logLik float64) error {
		draws = append(draws, draw{stat, logLik, append([]float64(nil), ages...)})
		return nil
	}); err != nil {
		return err
	}
	if len(draws) == 0 {
		return fmt.Errorf("job %s recorded no draws", ref.ID)
	}
	perFlush := sz.Every * sz.N // draws between two snapshots
	var appendNs, diagNs float64
	var flushes []float64
	for rep := 0; rep < 5; rep++ {
		path := filepath.Join(tmp, fmt.Sprintf("t%d.trace", rep))
		w, err := trace.Open(path, len(draws[0].ages))
		if err != nil {
			return err
		}
		diag := stats.NewOnlineDiag(0, 0)
		for i, dr := range draws {
			t0 := time.Now()
			w.Append(dr.stat, dr.ages, dr.logLik)
			appendNs += float64(time.Since(t0))
			t0 = time.Now()
			diag.Add(dr.stat)
			if (i+1)%perFlush == 0 {
				diag.ESS()
			}
			diagNs += float64(time.Since(t0))
			if (i+1)%perFlush == 0 || i == len(draws)-1 {
				t0 = time.Now()
				if err := w.Flush(); err != nil {
					w.Close()
					return err
				}
				flushes = append(flushes, time.Since(t0).Seconds()*1e6)
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		if rep == 0 {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			m["trace.bytes_per_draw"] = float64(fi.Size()) / float64(len(draws))
		}
	}
	nDraws := float64(5 * len(draws))
	m["trace.append_ns_per_draw"] = appendNs / nDraws
	m["trace.flush_us"] = median(flushes)
	m["stats.online_ess_ns_per_draw"] = diagNs / nDraws
	// Durable-write share of a job: its snapshots, sidecar frames and
	// journal record at the directly measured costs, over the job latency.
	steps := 0.0
	for _, jr := range st.jobs {
		steps += float64(jr.View.Steps)
	}
	steps /= float64(len(st.jobs))
	snapshots := math.Ceil(steps / float64(sz.Every))
	lat := mean(st.latencies())
	m["ckpt.share"] = (snapshots*m["ckpt.save_ms"] + m["ckpt.job_record_ms"]) / lat
	m["trace.share"] = (snapshots*m["trace.flush_us"]/1e3 + steps*float64(sz.N)*m["trace.append_ns_per_draw"]/1e6) / lat
	out.Report["job_steps"] = steps

	return traceJobSampler(mix, st.jobs, out)
}

// traceJobSampler re-runs traced jobs as standalone estimations with
// the same alignment, settings and seed, composed from the exported
// calls with spans around every pass, round and M-step, and checks that
// each returns the served θ bit for bit. The sampler-layer shares are
// shares of these standalone re-runs: a job's compute, without the
// queue, HTTP and durable writes around it.
func traceJobSampler(mix *serviceMix, jobs []jobRecord, out *outcome) error {
	sz := mix.sz
	size := emSize{Data: sz.Data, N: sz.N, Workers: sz.Workers, Burnin: sz.Burnin, Samples: sz.Samples, Iterations: 1, Theta0: sz.Theta0}
	build := func(text string, seed uint64, workers int) (*emEngine, error) {
		aln, err := phylip.Read(strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		return newEngine(aln, size, seed, workers)
	}
	rec := newRecorder()
	var latency, acc, props, failed float64
	var launches, threads int64
	var rounds, n int
	var firstReq submitRequest
	var first *tracedEstimate
	for _, jr := range jobs {
		if !jr.OK || n == 16 {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(jr.Name, "j"))
		if err != nil {
			return err
		}
		req := mix.request(k)
		size.ESSTarget = req.ESSTarget
		eng, err := build(req.Phylip, req.Seed, sz.Workers)
		if err != nil {
			return err
		}
		te, err := traceEstimate(rec, eng, size, req.Seed)
		eng.dev.Close()
		if err != nil {
			return err
		}
		out.check(hexFloat(te.Theta) == jr.View.ThetaHex, "job %s: standalone theta %s, served %s", jr.Name, hexFloat(te.Theta), jr.View.ThetaHex)
		latency += jr.LatencyMs / 1e3
		acc, props, failed = acc+float64(te.Accepted), props+float64(te.Proposals), failed+float64(te.Failed)
		launches, threads, rounds = launches+te.Launches, threads+te.Threads, rounds+te.Rounds
		if first == nil && req.ESSTarget == 0 {
			firstReq, first = req, te
		}
		n++
	}
	if first == nil {
		return fmt.Errorf("no traced fixed-length job to re-run")
	}
	eng, err := build(firstReq.Phylip, firstReq.Seed, sz.Workers)
	if err != nil {
		return err
	}
	defer eng.dev.Close()
	rp, err := replayGMH(eng.ev, eng.dev, eng.init, sz.Theta0, sz.N, sz.Burnin, sz.Samples, firstReq.Seed)
	if err != nil {
		return err
	}
	out.check(rp.Hash == first.FirstHash, "replayed job pass differs from the production pass")
	one, err := build(firstReq.Phylip, firstReq.Seed, 1)
	if err != nil {
		return err
	}
	defer one.dev.Close()
	var w1, wN []float64
	cfg := core.ChainConfig{Theta: sz.Theta0, Burnin: sz.Burnin, Samples: sz.Samples, Seed: firstReq.Seed}
	for rep := 0; rep < 3; rep++ {
		pN, err := runPass(nil, eng, cfg)
		if err != nil {
			return err
		}
		p1, err := runPass(nil, one, cfg)
		if err != nil {
			return err
		}
		out.check(hashSamples(p1.res.Samples) == hashSamples(pN.res.Samples), "workers=1 job pass differs")
		w1, wN = append(w1, p1.wall), append(wN, pN.wall)
	}

	m := out.Metrics
	m["core.round_us"] = median(durations(rec.spans, "core.round")) * 1e6
	m["core.mstep_s"] = median(durations(rec.spans, "core.mstep"))
	m["core.rel_loglik_us"] = relLogLikUs(first.Last.Samples, eng.dev)
	m["core.mstep_evals_est"] = m["core.mstep_s"] * 1e6 / m["core.rel_loglik_us"]
	m["core.accept_ratio"] = acc / props
	m["core.em_iterations"] = 1
	standalone := sumDur(rec.spans, "bench.estimate")
	m["core.mstep_share"] = sumDur(rec.spans, "core.mstep") / standalone
	m["core.replay_gap_share"] = sumDur(rp.Spans, "bench.round")/first.FirstRound - 1
	m["resim.failed_ratio"] = failed / props
	m["felsen.rebase_full_ms"] = rebaseFullMs(eng.ev, eng.init)
	m["device.launches_per_round"] = float64(launches) / float64(rounds)
	m["device.threads_per_round"] = float64(threads) / float64(rounds)
	m["device.speedup_1_to_n"] = median(w1) / median(wN)
	rp.fill(out, sumDur(rec.spans, "core.round")/standalone)
	out.Report["rerun_jobs"] = n
	out.Report["rerun_over_served"] = standalone / latency
	return nil
}
