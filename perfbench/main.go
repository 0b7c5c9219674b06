// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time, checks its outputs, and prints its
// metrics; the last stdout line is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload catalog-quick --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time, CPU,
// memory, op latency). With --trace 1 the run first repeats the untraced
// measurement for half the time, then measures again with spans recorded
// around every call into a layer's public API and a CPU profile running,
// and reports the per-layer metrics. The workloads and the metric map
// are described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Batch is one fixed amount of a workload's work — a catalog pass, a
// characterize grid, a fleet sweep — and what the harness measured
// around it.
type Batch struct {
	// Setup is host time spent building per-batch infrastructure before
	// the first op could start (fleet only; zero elsewhere).
	Setup time.Duration
	// Wall is first op issued to last op done (fleet: every worker has
	// exited); ToLast is first op issued to the last op finished or
	// merged, the ops_per_s denominator.
	Wall, ToLast time.Duration
	// CPU and Alloc are the process's user+sys CPU time and heap bytes
	// allocated over the batch.
	CPU   time.Duration
	Alloc uint64
	// Ops holds each op's latency.
	Ops []time.Duration
	// Attempted and Failed count the batch's ops; an op fails when it
	// errors or its output check fails.
	Attempted, Failed int
	// Counts are per-layer tallies summed over the batch.
	Counts map[string]float64
	// Digest fingerprints the batch's simulated outputs.
	Digest string
}

// Workload is one named benchmark input.
type Workload interface {
	// Setup performs one timed set-up; a run does setupReps of them.
	Setup() (time.Duration, error)
	// MinBatches is the fewest batches a measured phase runs, however
	// short its time: enough ops for the tail percentile.
	MinBatches() int
	// Batch runs one batch; tr is nil in the untraced run.
	Batch(tr *Tracer) (Batch, error)
	// Finish runs the off-clock output checks once measuring is over and
	// returns how many ops failed them.
	Finish() (failed int, err error)
	// Layers derives the workload's per-layer metrics from its batches
	// and, in the traced phase, its spans.
	Layers(bs []Batch, tr *Tracer) map[string]float64
}

// setupReps is how many set-ups a run times before measuring; setup_s is
// the median of these and of the batches' own set-ups (fleet only).
const setupReps = 9

// tailPct is the op-latency percentile reported as op_ms_tail. Every
// workload's MinBatches leaves at least ten ops beyond it
// (TestTailRestsOnTenSamples).
const tailPct = 90

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of stdout.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "how long one run measures")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = fs.String("out", ".bench_build", "directory for temp state, spans and profiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	tmp := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	res, report, err := measureRun(w, *seconds, *trace == 1, *outDir, fmt.Sprintf("%s-seed%d", *name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	for _, line := range report {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measureRun performs the set-ups and measured phases of one run and
// assembles its result and human-readable report lines.
func measureRun(w Workload, seconds float64, traced bool, outDir, tag string) (Result, []string, error) {
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		d, err := w.Setup()
		if err != nil {
			return Result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}

	if !traced {
		bs, err := measure(w, seconds, w.MinBatches(), nil)
		if err != nil {
			return Result{}, nil, err
		}
		peak := peakRSSMB()
		checkFailed, err := w.Finish()
		if err != nil {
			return Result{}, nil, err
		}
		for _, b := range bs {
			setups = append(setups, b.Setup)
		}
		e2e, lines := endToEnd(setups, bs, peak)
		res := outcome(bs, checkFailed)
		lines = append(lines, fmt.Sprintf("fail_frac %g (%d/%d)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))
		lines = append(lines, digestLines(bs, nil)...)
		res.Metrics = e2e
		return res, lines, nil
	}

	untraced, err := measure(w, seconds/2, 1, nil)
	if err != nil {
		return Result{}, nil, err
	}
	tr := NewTracer()
	profPath := filepath.Join(outDir, tag+".cpu.pprof")
	stop, err := startProfile(profPath)
	if err != nil {
		return Result{}, nil, err
	}
	tracedBs, err := measure(w, seconds/2, 1, tr)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return Result{}, nil, err
	}
	checkFailed, err := w.Finish()
	if err != nil {
		return Result{}, nil, err
	}
	spanPath := filepath.Join(outDir, tag+".spans.jsonl")
	if err := tr.WriteFile(spanPath); err != nil {
		return Result{}, nil, err
	}
	shares, samples, err := profileShares(profPath)
	if err != nil {
		return Result{}, nil, err
	}

	layer := w.Layers(tracedBs, tr)
	layer["trace.overhead_frac"] = median(walls(tracedBs)).Seconds()/median(walls(untraced)).Seconds() - 1
	layer["trace.spans"] = float64(len(tr.Spans()))
	for pkg, v := range shares {
		layer["prof."+pkg] = v
	}
	layer["prof.samples"] = float64(samples)
	for name, d := range SelfTimes(tr.Spans()) {
		key := "self_s." + name
		if _, known := perLayerUnits[key]; known {
			layer[key] = d.Seconds() / float64(len(tracedBs))
		}
	}
	metrics := map[string]Metric{}
	for name, unit := range perLayerUnits {
		metrics[name] = Metric{Value: layer[name], Unit: unit}
	}
	res := outcome(append(untraced, tracedBs...), checkFailed)
	res.Metrics = metrics

	lines := []string{fmt.Sprintf("spans %s (%d), cpu profile %s (%d samples; prof.* shares are sampled and not gated)", spanPath, len(tr.Spans()), profPath, samples)}
	for _, name := range sortedKeys(metrics) {
		lines = append(lines, fmt.Sprintf("%s %.6g %s", name, metrics[name].Value, metrics[name].Unit))
	}
	lines = append(lines, digestLines(untraced, tracedBs)...)
	return res, lines, nil
}

// measure runs at least minBatches batches, and more while the next one
// (judged by the median so far) still ends within seconds, measuring CPU
// and allocation around each.
func measure(w Workload, seconds float64, minBatches int, tr *Tracer) ([]Batch, error) {
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var bs []Batch
	for len(bs) < minBatches || time.Since(start)+median(walls(bs)) <= limit {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		b, err := w.Batch(tr)
		if err != nil {
			return nil, err
		}
		b.CPU = cpuTime() - c0
		runtime.ReadMemStats(&m1)
		b.Alloc = m1.TotalAlloc - m0.TotalAlloc
		bs = append(bs, b)
	}
	return bs, nil
}

// outcome totals attempted and failed ops; checkFailed adds the ops the
// off-clock checks rejected.
func outcome(bs []Batch, checkFailed int) Result {
	var r Result
	for _, b := range bs {
		r.Attempted += b.Attempted
		r.Failed += b.Failed
	}
	r.Failed += checkFailed
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(setups []time.Duration, bs []Batch, peakMB float64) (map[string]Metric, []string) {
	var lat []float64
	var allocs uint64
	var cpus, rates []float64
	for _, b := range bs {
		for _, d := range b.Ops {
			lat = append(lat, ms(d))
		}
		allocs += b.Alloc
		cpus = append(cpus, b.CPU.Seconds())
		rates = append(rates, float64(len(b.Ops))/b.ToLast.Seconds())
	}
	m := map[string]Metric{
		"setup_s":         {median(nonZero(setups)).Seconds(), "s"},
		"wall_s":          {median(walls(bs)).Seconds(), "s"},
		"cpu_s":           {medianF(cpus), "s"},
		"ops_per_s":       {medianF(rates), "1/s"},
		"op_ms_p50":       {percentile(lat, 50), "ms"},
		"op_ms_tail":      {percentile(lat, tailPct), "ms"},
		"peak_rss_mb":     {peakMB, "MB"},
		"alloc_mb_per_op": {float64(allocs) / 1e6 / float64(len(lat)), "MB"},
	}
	lines := []string{fmt.Sprintf("batches %d, ops %d, set-ups %d", len(bs), len(lat), len(nonZero(setups)))}
	var per []string
	for _, b := range bs {
		per = append(per, fmt.Sprintf("%.4g/%.4g", b.Wall.Seconds(), b.ToLast.Seconds()))
	}
	lines = append(lines, "batch wall_s/last_op_s "+strings.Join(per, " "))
	per = per[:0]
	for _, d := range nonZero(setups) {
		per = append(per, fmt.Sprintf("%.3g", ms(d)))
	}
	lines = append(lines, "set-up ms "+strings.Join(per, " "))
	for _, name := range sortedKeys(m) {
		line := fmt.Sprintf("%s %.6g %s", name, m[name].Value, m[name].Unit)
		switch name {
		case "op_ms_p50":
			line += fmt.Sprintf(" (p50, n=%d)", len(lat))
		case "op_ms_tail":
			line += fmt.Sprintf(" (p%d, n=%d, %d beyond)", tailPct, len(lat), beyond(len(lat), tailPct))
		}
		lines = append(lines, line)
	}
	return m, lines
}

// digestLines prints the simulated-output digest of the run's batches;
// every batch of a run replays the same inputs, so all must agree.
func digestLines(a, b []Batch) []string {
	seen := map[string]bool{}
	var first string
	for _, x := range append(append([]Batch(nil), a...), b...) {
		if first == "" {
			first = x.Digest
		}
		seen[x.Digest] = true
	}
	lines := []string{"sim_digest " + first}
	if len(seen) > 1 {
		lines = append(lines, fmt.Sprintf("sim_digest MISMATCH: %d distinct digests across batches", len(seen)))
	}
	return lines
}

func walls(bs []Batch) []time.Duration {
	out := make([]time.Duration, len(bs))
	for i, b := range bs {
		out[i] = b.Wall
	}
	return out
}

func nonZero(ds []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range ds {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
