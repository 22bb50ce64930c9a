// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload, checks every output against independent
// computations and method properties, and prints one JSON object as its
// last line:
//
//	{"correct": true, "attempted": 18, "failed": 3, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload table1-scale|dualvth-signoff|serve-mixed
//	          --seed N --seconds S --trace 0|1 [--spans FILE]
//
// A run measures in parts, each in a child process of its own so that
// every cache starts cold, as it does for a table1, smtflow or smtd
// process, and starts parts until --seconds have passed. Its figures are
// medians over the parts, which keeps one process's luck out of them.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans recorded around every call into a
// layer are written to the span file. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs one part.
var workloads = map[string]func(*bench) error{
	"table1-scale":    runTable1Scale,
	"dualvth-signoff": runDualVthSignoff,
	"serve-mixed":     runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 20050307, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 10, "start parts until this many seconds have passed")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := fs.String("spans", "", "span file for --trace 1 (default .bench_build/spans/<workload>-<seed>.json)")
	part := fs.Int("part", -1, "internal: run part N in this process and print its raw figures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *part >= 0 {
		return runPart(drive, *workload, *seed, *part, *trace == 1)
	}

	var parts []*partResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < time.Duration(*secs)*time.Second ||
		(*workload == "serve-mixed" && jobCount(parts) < serveMinJobs); i++ {
		p, err := spawnPart(args, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", *workload, i, err)
			return 1
		}
		parts = append(parts, p)
	}
	res := merge(parts, *trace == 1)
	res.reportFailures()
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		if err := writeSpans(path, res.Spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d parts, %d spans written to %s\n", len(parts), len(res.Spans), path)
	}
	out, err := res.line(*workload, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if len(res.Problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spawnPart runs part i of the run in a child process (this binary with
// --part i) and decodes the raw figures it prints as its last line. The
// child's standard error passes through.
func spawnPart(args []string, i int) (*partResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append(append([]string(nil), args...), "--part", strconv.Itoa(i))...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p partResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return nil, fmt.Errorf("decode part: %w", err)
	}
	return &p, nil
}

// runPart is the child side: it runs one part and prints its figures.
func runPart(drive func(*bench) error, workload string, seed int64, part int, traced bool) int {
	b := &bench{workload: workload, seed: seed, part: part}
	b.Layer = map[string]float64{}
	b.Start = time.Now().UnixNano()
	if traced {
		b.trace = newTracer(time.Unix(0, b.Start))
	}
	rt0 := readRuntime()
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", workload, part, err)
		return 1
	}
	rt1 := readRuntime()
	b.PeakRSSMB = peakRSSMB()
	b.addLayer("runtime.alloc_mb", (rt1.allocBytes-rt0.allocBytes)/(1<<20))
	b.addLayer("runtime.gc_cpu_s", rt1.gcCPUSeconds-rt0.gcCPUSeconds)
	b.addLayer("runtime.gc_cycles", rt1.gcCycles-rt0.gcCycles)
	if b.trace != nil {
		b.Spans = b.trace.spans
	}
	out, err := json.Marshal(&b.partResult)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench is one part's state: its inputs, the span recorder (traced runs
// only) and the figures it reports.
type bench struct {
	workload string
	seed     int64
	part     int
	trace    *tracer // nil in untraced runs
	partResult
}

// partResult is what one part measured, as raw samples and totals; the
// parent process merges the parts into the run's figures.
type partResult struct {
	Start     int64 // Unix nanoseconds, to place the part's spans
	Rounds    int
	Attempted int
	Failures  []failure
	Problems  []string

	Setups    []float64 // set-up times
	Walls     []float64 // wall-clock per round
	Busy      float64   // seconds the measured rounds took
	Completed int       // operations completed without a fault
	JobLat    []float64 // per-operation latencies
	Leak      float64
	Area      float64
	PeakRSSMB float64
	// Reports maps each repeated serve spec to its report text's digest.
	Reports map[string]string

	Layer map[string]float64 // per-layer totals
	Tally layerTally
	Spans []span
}

// failure is one failed operation with the fault it was attributed to.
type failure struct {
	Op, Fault, Msg string
}

// layerTally accumulates the raw counts behind the per-layer ratios.
type layerTally struct {
	STAHits, STAMisses     uint64
	Commits, Reverts       int
	CacheHits, CacheMisses uint64
	CompileCacheMB         float64
}

// fail records a failed operation. Failures that match neither known
// fault make the run incorrect.
func (b *bench) fail(op, msg string) {
	fault := classifyFault(msg)
	b.Failures = append(b.Failures, failure{Op: op, Fault: fault, Msg: msg})
	if fault == "" {
		b.Problems = append(b.Problems, fmt.Sprintf("%s failed outside the known faults: %s", op, msg))
	}
}

// problem records a failed output check.
func (b *bench) problem(format string, args ...any) {
	b.Problems = append(b.Problems, fmt.Sprintf(format, args...))
}

// addLayer accumulates a per-layer metric (traced runs only).
func (b *bench) addLayer(name string, v float64) {
	if b.trace != nil {
		b.Layer[name] += v
	}
}

// mergedResult is the run's outcome.
type mergedResult struct {
	Rounds    int
	Attempted int
	Failures  []failure
	Problems  []string
	Spans     []span
	e2e       map[string]float64
	layer     map[string]float64
}

// merge combines the parts into the run's figures: medians of the
// per-part samples, pooled latencies, summed counts. Every part must
// produce the same design figures and report texts.
func merge(parts []*partResult, traced bool) *mergedResult {
	m := &mergedResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var setups, walls, lat, rss []float64
	var busy float64
	var completed int
	var tally layerTally
	first := parts[0]
	m.e2e["leak_mw"], m.e2e["area_um2"] = first.Leak, first.Area
	for i, p := range parts {
		if p.Leak != first.Leak || p.Area != first.Area {
			m.Problems = append(m.Problems, fmt.Sprintf("part %d: leak %.9g mW, area %.3f µm²; part 0: %.9g mW, %.3f µm²",
				i, p.Leak, p.Area, first.Leak, first.Area))
		}
		for spec, digest := range p.Reports {
			if first.Reports[spec] != digest {
				m.Problems = append(m.Problems, fmt.Sprintf("part %d: %s report differs from part 0's", i, spec))
			}
		}
		m.Rounds += p.Rounds
		m.Attempted += p.Attempted
		m.Failures = append(m.Failures, p.Failures...)
		m.Problems = append(m.Problems, p.Problems...)
		setups = append(setups, p.Setups...)
		walls = append(walls, p.Walls...)
		lat = append(lat, p.JobLat...)
		rss = append(rss, p.PeakRSSMB)
		busy += p.Busy
		completed += p.Completed
		for k, v := range p.Layer {
			m.layer[k] += v
		}
		tally.STAHits += p.Tally.STAHits
		tally.STAMisses += p.Tally.STAMisses
		tally.Commits += p.Tally.Commits
		tally.Reverts += p.Tally.Reverts
		tally.CacheHits += p.Tally.CacheHits
		tally.CacheMisses += p.Tally.CacheMisses
		tally.CompileCacheMB = max(tally.CompileCacheMB, p.Tally.CompileCacheMB)
		m.Spans = append(m.Spans, rebase(p.Spans, len(m.Spans), float64(p.Start-first.Start)/1e6)...)
	}
	m.e2e["setup_s"] = median(setups)
	m.e2e["wall_s"] = median(walls)
	m.e2e["peak_rss_mb"] = median(rss)
	if busy > 0 {
		m.e2e["jobs_per_s"] = float64(completed) / busy
	}
	m.e2e["job_p50_s"] = median(lat)
	m.e2e["job_p90_s"] = quantile(lat, 0.9)
	if traced {
		m.finishLayers(&tally)
	}
	return m
}

// finishLayers turns the summed per-layer totals into per-round figures,
// so that runs of different lengths compare, and derives the ratios and
// levels from the summed counts.
func (m *mergedResult) finishLayers(t *layerTally) {
	rounds := float64(max(m.Rounds, 1))
	for k := range m.layer {
		m.layer[k] /= rounds
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m.layer["sta.compiles"] = float64(t.STAMisses) / rounds
	m.layer["sta.compile_hit_ratio"] = ratio(float64(t.STAHits), float64(t.STAHits+t.STAMisses))
	m.layer["sta.compile_cache_mb"] = t.CompileCacheMB
	m.layer["assign.commits"] = float64(t.Commits) / rounds
	m.layer["assign.reverts"] = float64(t.Reverts) / rounds
	m.layer["assign.kept_ratio"] = ratio(float64(t.Commits-t.Reverts), float64(t.Commits))
	m.layer["engine.cache_hits"] = float64(t.CacheHits) / rounds
	m.layer["engine.cache_misses"] = float64(t.CacheMisses) / rounds
	m.layer["engine.cache_hit_ratio"] = ratio(float64(t.CacheHits), float64(t.CacheHits+t.CacheMisses))
}

// reportFailures prints each distinct failed operation once, with the
// fault it was attributed to and how often it failed.
func (m *mergedResult) reportFailures() {
	count := map[failure]int{}
	var order []failure
	for _, f := range m.Failures {
		if count[f] == 0 {
			order = append(order, f)
		}
		count[f]++
	}
	for _, f := range order {
		fault := f.Fault
		if fault == "" {
			fault = "unknown"
		}
		fmt.Fprintf(os.Stderr, "perfbench: failed %d× %s [%s]: %s\n", count[f], f.Op, fault, f.Msg)
	}
}

// line renders the final JSON line: end-to-end metrics untraced,
// per-layer metrics traced.
func (m *mergedResult) line(workload string, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEndMetrics, m.e2e
	if traced {
		defs, got = perLayerMetrics, m.layer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		ms[d.name] = value{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(m.Problems) == 0, m.Attempted, len(m.Failures), ms})
}

// jobCount is how many operations the parts so far attempted.
func jobCount(parts []*partResult) int {
	n := 0
	for _, p := range parts {
		n += p.Attempted
	}
	return n
}

// runtimeSample is the slice of runtime/metrics the per-layer runtime
// metrics are derived from.
type runtimeSample struct {
	allocBytes, gcCPUSeconds, gcCycles float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

// roundLog reports a round's wall-clock beside the process CPU time and
// the GC's share of it, on standard error.
type roundLog struct {
	cpu float64
	rt  runtimeSample
}

func startRoundLog() roundLog { return roundLog{processCPU(), readRuntime()} }

func (l roundLog) log(b *bench, wall float64) {
	rt := readRuntime()
	fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %.3f s wall, %.2f s CPU, %.2f s GC CPU, %.0f GC cycles\n",
		b.workload, b.part, wall, processCPU()-l.cpu, rt.gcCPUSeconds-l.rt.gcCPUSeconds, rt.gcCycles-l.rt.gcCycles)
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none); the
// median of an even count is the mean of the middle two.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
