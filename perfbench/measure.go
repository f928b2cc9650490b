package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" definition). It returns NaN for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread bounds are checked with. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

// iqrShare is the interquartile range of xs as a share of its median,
// the spread measure the benchmark's bounds are stated in.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailLadder lists the percentiles the benchmark reports beside a median.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least minBeyond samples above it in a sample of n, and false
// when not even the median qualifies.
func tailPercentile(n, minBeyond int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		// Samples strictly beyond the p-th percentile of n values.
		beyond := int(math.Floor(float64(n)*(1-p/100) + 1e-9))
		if beyond >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// dist is a timing reported as a median, the highest percentile with at
// least ten samples beyond it, and the sample count.
type dist struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr_share"`
	Tail   float64 `json:"tail,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	N      int     `json:"n"`
}

func summarize(xs []float64) dist {
	d := dist{Median: median(xs), IQR: iqrShare(xs), N: len(xs)}
	if p, ok := tailPercentile(len(xs), 10); ok {
		d.TailP = p
		d.Tail = quantile(xs, p/100)
	}
	return d
}

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recorder's origin; Parent indexes the span that
// caused it (-1 for a root).
type span struct {
	Name       string
	Parent     int
	Start, End int64
}

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: spans are opened and closed on the benchmark's own
// goroutine, around calls into the program.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// open starts a span under parent and returns its index. A nil
// recorder records nothing, so untraced runs share the traced code.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: r.now(), End: -1})
	return len(r.spans) - 1
}

// close ends span i.
func (r *recorder) close(i int) {
	if r != nil {
		r.spans[i].End = r.now()
	}
}

// merge appends another recorder's spans, keeping their parent links.
// Spans of different recorders are only ever compared within one tree,
// so their differing origins do not matter.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// durations returns the durations in seconds of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// sumDur totals the durations in seconds of every span named name.
func sumDur(spans []span, name string) float64 {
	t := 0.0
	for _, d := range durations(spans, name) {
		t += d
	}
	return t
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// sumDurChildren totals the durations in seconds of the spans named
// name whose parent is span parent.
func sumDurChildren(spans []span, name string, parent int) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Name == name && s.Parent == parent {
			t += float64(s.End-s.Start) / 1e9
		}
	}
	return t
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children's intervals cover.
// Overlapping children (calls made in parallel) count once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[i] = (s.End - s.Start) - unionLength(ivs)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf maps a span name "<module>.<call>" to its module.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribution splits the wall time of the root spans (Parent -1) among
// layers by self time. It returns each layer's share of the root wall
// and the unattributed share: root self time, the part of the root
// interval no layer span covers.
func attribution(spans []span) (shares map[string]float64, unattributed float64) {
	self := selfTimes(spans)
	var wall, rootSelf int64
	byLayer := map[string]int64{}
	for i, s := range spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
			rootSelf += self[i]
			continue
		}
		byLayer[layerOf(s.Name)] += self[i]
	}
	shares = map[string]float64{}
	if wall == 0 {
		return shares, 0
	}
	for l, t := range byLayer {
		shares[l] = float64(t) / float64(wall)
	}
	return shares, float64(rootSelf) / float64(wall)
}

// cpuNow returns the process's CPU time (all threads, user plus system)
// in seconds, from CLOCK_PROCESS_CPUTIME_ID.
func cpuNow() float64 {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return float64(ts.Nano()) / 1e9
}

// userHz is the tick rate of /proc/stat's counters, fixed by the Linux ABI.
const userHz = 100

// stolenNow is the machine's cumulative CPU time stolen by the
// hypervisor, in seconds (0 where /proc/stat is unreadable).
func stolenNow() float64 {
	t, err := readCPUTicks()
	if err != nil {
		return 0
	}
	return float64(t.steal) / userHz
}

// meter times one unit of work: wall time, process CPU time, and the CPU
// time the hypervisor stole meanwhile.
type meter struct {
	start       time.Time
	cpu, stolen float64
}

func startMeter() meter { return meter{start: time.Now(), cpu: cpuNow(), stolen: stolenNow()} }

// stop returns the unit's wall time, CPU time, and its wall time net of
// steal (see netOfSteal).
func (m meter) stop() (wall, cpu, net float64) {
	wall = time.Since(m.start).Seconds()
	cpu = cpuNow() - m.cpu
	return wall, cpu, netOfSteal(wall, cpu, stolenNow()-m.stolen)
}

// netOfSteal removes from a wall time the delay that hypervisor steal
// caused. While the benchmark runs, only its own threads keep the vCPUs
// busy, so every stolen tick delayed one of them; the process's CPU time
// excludes stolen time. With cpu+stolen thread-seconds spread over wall
// seconds, the stolen share of the wall time is stolen/(cpu+stolen).
func netOfSteal(wall, cpu, stolen float64) float64 {
	if !(stolen > 0) || !(cpu > 0) {
		return wall
	}
	return wall * cpu / (cpu + stolen)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks is the machine-wide CPU time split of /proc/stat's first line.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}, fmt.Errorf("empty /proc/stat")
	}
	return parseCPULine(sc.Text())
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq steal ...".
func parseCPULine(line string) (cpuTicks, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	// Guest time (fields 9, 10) is already counted in user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}, err
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of machine CPU time stolen by the hypervisor
// between two readings (0 when the counters did not move).
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
