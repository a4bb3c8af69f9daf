// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measuring time and prints, as the last line
// of its standard output, a JSON object with the output-check verdict,
// the operations attempted and failed, and the metrics:
//
//	perfbench --workload join-storm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end set, each the median over
// the run's repetitions. With --trace 1 the run alternates untraced and
// traced repetitions and the metrics are the per-layer set: a CPU ledger
// from a runtime/pprof profile of the traced repetitions, counters from
// the simulator's flight recorder and event sink, the live transports'
// and flow planes' counters, and the tracing overhead. The line before
// the last carries the full report: environment, per-repetition samples,
// every end-to-end metric the workload defines (including the ones only
// it has), the live rate ladder and the recorded spans.
//
// run.sh builds the benchmark from the checkout's sources and runs it;
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"vdm/internal/benchio"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd is the gated metric set every workload reports with --trace 0;
// README.md gives each metric's meaning per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"cpu_us_per_event", "us"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness) error{
	"join-storm":    func(h *harness) error { return runSimWorkload(h, 0) },
	"sharded-join":  func(h *harness) error { return runSimWorkload(h, shardedShards) },
	"paper-figures": runFigures,
	"live-udp":      runLive,
}

func main() {
	workload := flag.String("workload", "", "workload to run: join-storm, sharded-join, paper-figures or live-udp")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measuring time; a repetition starts only if it should end within it")
	trace := flag.Int("trace", 0, "1 runs traced repetitions too and reports the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	h := newHarness(*workload, *seed, *seconds, *trace == 1)
	if err := run(h); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res, err := h.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep, err := json.Marshal(map[string]any{"report": h.rep})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", rep, last)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is what every report records about where it ran.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

// report is the detailed record printed before the result line.
type report struct {
	Env environment `json:"env"`
	// Named holds every end-to-end metric the workload defines, by the
	// names README.md lists, including workload-specific ones outside
	// the gated set and fail_ratio.
	Named map[string]metric `json:"named"`
	// Reps is one entry per repetition: its kind and measured values.
	Reps   []map[string]any `json:"reps"`
	Ladder []rung           `json:"ladder,omitempty"`
	Checks []string         `json:"check_failures,omitempty"`
	Spans  []span           `json:"spans,omitempty"`
}

// harness carries one run's settings and accumulates what it measures.
type harness struct {
	seed    int64
	seconds float64
	traced  bool
	start   time.Time

	fails tally
	e2e   map[string][]float64 // gated metric → per-repetition values
	named map[string]metric    // extra end-to-end metrics (report only)
	layer map[string][]float64 // per-layer metric → per-traced-repetition values
	// costUntraced/costTraced feed trace.overhead_ratio.
	costUntraced, costTraced []float64

	rep   report
	spans spanLog
}

func newHarness(workload string, seed int64, seconds float64, traced bool) *harness {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	h := &harness{
		seed: seed, seconds: seconds, traced: traced, start: time.Now(),
		e2e:   map[string][]float64{},
		named: map[string]metric{},
		layer: map[string][]float64{},
	}
	h.spans.t0 = h.start
	h.rep.Env = environment{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), GitSHA: gitSHA(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	return h
}

// gitSHA is the checkout's commit when it is a git work tree, else
// "unknown".
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	return benchio.GitSHA()
}

// repeat calls rep while another repetition fits in the measuring time,
// judged by the longest repetition so far. Untraced runs repeat untraced
// work; traced runs alternate untraced and traced repetitions, starting
// untraced and doing at least one of each.
func (h *harness) repeat(rep func(traced bool) error) error {
	var longest time.Duration
	for i := 0; ; i++ {
		traced := h.traced && i%2 == 1
		t0 := time.Now()
		if err := rep(traced); err != nil {
			return err
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		enough := !h.traced || i >= 1
		if enough && time.Since(h.start)+longest > h.budget() {
			return nil
		}
	}
}

// budget is the measuring time as a duration.
func (h *harness) budget() time.Duration {
	return time.Duration(h.seconds * float64(time.Second))
}

// record keeps one repetition's gated metrics: untraced repetitions feed
// the end-to-end medians, and in traced runs the costs of both kinds
// (wall clock, or CPU time where the schedule fixes the wall clock) feed
// the overhead ratio.
func (h *harness) record(traced bool, cost float64, vals map[string]float64) {
	if traced {
		h.costTraced = append(h.costTraced, cost)
		return
	}
	h.costUntraced = append(h.costUntraced, cost)
	for k, v := range vals {
		h.e2e[k] = append(h.e2e[k], v)
	}
}

// addLayer records one traced repetition's per-layer values.
func (h *harness) addLayer(vals map[string]float64) {
	for k, v := range vals {
		h.layer[k] = append(h.layer[k], v)
	}
}

// check records an output-check failure.
func (h *harness) check(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.rep.Checks = append(h.rep.Checks, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// result assembles the last output line.
func (h *harness) result() (result, error) {
	res := result{
		Correct:   len(h.rep.Checks) == 0 && h.fails.Failed == 0 && h.fails.Attempted > 0,
		Attempted: h.fails.Attempted,
		Failed:    h.fails.Failed,
		Metrics:   map[string]metric{},
	}
	h.rep.Named = map[string]metric{}
	for _, m := range endToEnd {
		if vs := h.e2e[m.name]; len(vs) > 0 {
			h.rep.Named[m.name] = metric{median(vs), m.unit}
		}
	}
	for k, v := range h.named {
		h.rep.Named[k] = v
	}
	h.rep.Named["fail_ratio"] = metric{h.fails.ratio(), "ratio"}
	h.rep.Spans = h.spans.spans

	if !h.traced {
		for _, m := range endToEnd {
			v, ok := h.rep.Named[m.name]
			if !ok || math.IsNaN(v.Value) || v.Value <= 0 {
				return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = v
		}
	} else {
		h.layer["trace.overhead_ratio"] = []float64{median(h.costTraced) / median(h.costUntraced)}
		for _, m := range perLayer {
			v := 0.0
			if vs := h.layer[m.name]; len(vs) > 0 {
				v = mean(vs)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: attempted=%d failed=%d correct=%v\n",
		h.rep.Env.Workload, h.seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(h.rep.Named))
	for k := range h.rep.Named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %s\n", k, h.rep.Named[k].Value, h.rep.Named[k].Unit)
	}
	return res, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probe measures one unit of work: wall clock, process CPU (rusage),
// sampled peak heap and, when traced, a CPU profile ledger and the
// runtime's GC and allocation counters over the call.
type probe struct {
	Wall    float64
	CPU     float64
	PeakMB  float64
	Ledger  ledger
	Runtime map[string]float64
}

// runtimeCounters are the runtime/metrics read around a traced call.
var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readCounters() []float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// measure runs fn as one probed unit of work. The heap is collected
// first so the peak sample floor is this unit's live set, not the
// previous one's garbage.
func measure(traced bool, fn func() error) (probe, error) {
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeakHeap(stop, peak)

	var prof bytes.Buffer
	var before []float64
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			close(stop)
			<-peak
			return probe{}, fmt.Errorf("cpu profile: %w", err)
		}
		before = readCounters()
	}
	cpu0 := processCPU()
	t0 := time.Now()
	err := fn()
	p := probe{Wall: time.Since(t0).Seconds(), CPU: processCPU() - cpu0}
	if traced {
		after := readCounters()
		pprof.StopCPUProfile()
		p.Runtime = map[string]float64{
			"runtime.gc_cpu_s":  after[0] - before[0],
			"runtime.gc_cycles": after[1] - before[1],
			"runtime.alloc_mb":  (after[2] - before[2]) / 1e6,
			"runtime.allocs":    after[3] - before[3],
		}
	}
	close(stop)
	p.PeakMB = float64(<-peak) / 1e6
	if err != nil {
		return p, err
	}
	if traced {
		l, lerr := ledgerFromProfile(prof.Bytes())
		if lerr != nil {
			return p, lerr
		}
		p.Ledger = l
	}
	return p, nil
}

// layerValues flattens a traced probe into per-layer metrics.
func (p probe) layerValues() map[string]float64 {
	out := map[string]float64{}
	for _, l := range ledgerLayers {
		out[l+".cpu_s"] = p.Ledger.CPU[l]
	}
	out["runtime.cpu_s"] = p.Ledger.CPU["runtime"]
	out["other.cpu_s"] = p.Ledger.CPU["other"]
	out["trace.cpu_samples"] = float64(p.Ledger.Samples)
	for k, v := range p.Runtime {
		out[k] = v
	}
	return out
}

// heapObjects is the runtime/metrics name of the live-and-unswept heap.
const heapObjects = "/memory/classes/heap/objects:bytes"

// samplePeakHeap reads the heap every 10 ms until stop closes, then sends
// the highest reading (the final one included) on peak.
func samplePeakHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: heapObjects}}
	var max uint64
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		read()
		select {
		case <-stop:
			read()
			peak <- max
			return
		case <-tick.C:
		}
	}
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// span is one recorded interval of the benchmark's calls into the
// program, in seconds since the run started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = top level
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory; the report writes them out at the end.
type spanLog struct {
	t0    time.Time
	spans []span
}

// begin opens a span under parent (0 for none) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.t0).Seconds()})
	return len(l.spans)
}

// end closes span id and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Seconds()
	return s.End - s.Start
}

// at closes span id at an instant measured elsewhere.
func (l *spanLog) endAt(id int, t time.Time) float64 {
	s := &l.spans[id-1]
	s.End = t.Sub(l.t0).Seconds()
	return s.End - s.Start
}
