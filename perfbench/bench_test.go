package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweepd"
	"repro/internal/trace"
)

// smallCharacterize is a characterize workload cut down to its first n
// cells, so tests run a batch in well under a second.
func smallCharacterize(t *testing.T, seed uint64, n int) *characterize {
	t.Helper()
	c := newCharacterize(seed)
	c.cells = c.cells[:n]
	if _, err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSameSeedSameOpsAndDigest(t *testing.T) {
	if !reflect.DeepEqual(cellOps(7), cellOps(7)) {
		t.Fatal("cellOps(7) differs between calls")
	}
	if reflect.DeepEqual(cellOps(7), cellOps(8)) {
		t.Fatal("cellOps ignores the seed")
	}
	// Every batch holds the same balanced grid whatever the seed.
	count := func(cells []cellSpec) map[[2]int]int {
		m := map[[2]int]int{}
		for _, c := range cells {
			m[[2]int{c.Kind, c.K}]++
		}
		return m
	}
	if !reflect.DeepEqual(count(cellOps(7)), count(cellOps(8))) {
		t.Fatal("the (kind, k) grid depends on the seed")
	}
	if !reflect.DeepEqual(newFleet(7, "").units, newFleet(7, "").units) {
		t.Fatal("fleet units differ for one seed")
	}

	a, err := smallCharacterize(t, 7, 6).Batch(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallCharacterize(t, 7, 6).Batch(NewTracer())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("same seed, different outputs: %s %v vs %s %v", a.Digest, a.Counts, b.Digest, b.Counts)
	}
	c, err := smallCharacterize(t, 8, 6).Batch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("sim_digest ignores the seed")
	}
	if a.Failed != 0 || a.Attempted != 6 || len(a.Ops) != 6 {
		t.Fatalf("batch accounting: attempted=%d failed=%d ops=%d", a.Attempted, a.Failed, len(a.Ops))
	}
}

func TestPercentileAndTailReporting(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 20: 1, 21: 2, 50: 3, 75: 4, 90: 5, 100: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}

	ops := make([]time.Duration, 100)
	for i := range ops {
		ops[i] = time.Duration(i+1) * time.Millisecond
	}
	b := Batch{Wall: time.Second, ToLast: time.Second, Ops: ops}
	m, lines := endToEnd([]time.Duration{2 * time.Second}, []Batch{b}, 1)
	if got := m["op_ms_tail"].Value; got != 90 {
		t.Errorf("op_ms_tail = %v, want p90 of 1..100 ms = 90", got)
	}
	if got := m["op_ms_p50"].Value; got != 50 {
		t.Errorf("op_ms_p50 = %v, want 50", got)
	}
	report := strings.Join(lines, "\n")
	for _, want := range []string{"(p90, n=100, 10 beyond)", "(p50, n=100)"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

// TestTailRestsOnTenSamples checks that every workload's MinBatches runs
// enough ops to leave at least ten beyond the reported tail percentile.
func TestTailRestsOnTenSamples(t *testing.T) {
	perBatch := map[string]int{
		"catalog-quick": len(experiments.All()),
		"characterize":  len(newCharacterize(1).cells),
		"fleet":         len(newFleet(1, "").units),
	}
	for _, name := range workloadNames() {
		w, err := newWorkload(name, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if n := w.MinBatches() * perBatch[name]; beyond(n, tailPct) < 10 {
			t.Errorf("%s: %d ops leave %d beyond p%d, want at least 10", name, n, beyond(n, tailPct), tailPct)
		}
	}
}

func TestFailuresRaiseFailFrac(t *testing.T) {
	res := outcome([]Batch{{Attempted: 10, Failed: 1}, {Attempted: 10}}, 2)
	if res.Attempted != 20 || res.Failed != 3 || res.Correct {
		t.Fatalf("outcome = %+v, want 3 of 20 failed and not correct", res)
	}
	if res := outcome([]Batch{{Attempted: 4}}, 0); !res.Correct || res.Failed != 0 {
		t.Fatalf("clean outcome = %+v", res)
	}

	// An experiment that is not done fails its op; so does a render that
	// drifts from the golden.
	c := newCatalog()
	c.root = ".."
	if _, err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.check(runner.Report{ID: "fig3", Status: runner.StatusFailed}); ok {
		t.Error("a failed experiment passed its check")
	}
	e, _ := experiments.Get("fig3")
	rep := runner.RunOne(context.Background(), runner.Config{Seed: goldenSeed, Quick: true}, e, nil)
	if _, ok := c.check(rep); !ok {
		t.Fatal("fig3 at the golden seed failed its golden check")
	}
	c.golden["fig3"] = append([]byte("x"), c.golden["fig3"]...)
	if _, ok := c.check(rep); ok {
		t.Error("a render differing from its golden passed")
	}

	// A sample off the 100 MHz grid or outside the MSR limits fails a cell;
	// a median between two adjacent rungs does not.
	lim := [2]sim.Freq{12, 24}
	on := []trace.Sample{{Value: 1.4}, {Value: 1.5}}
	if err := checkCell(on, 1.45, lim); err != nil {
		t.Errorf("midpoint median rejected: %v", err)
	}
	if err := checkCell(append(on, trace.Sample{Value: 1.43}), 1.45, lim); err == nil {
		t.Error("off-grid sample accepted")
	}
	if err := checkCell([]trace.Sample{{Value: 2.5}}, 2.5, lim); err == nil {
		t.Error("sample above the MSR limit accepted")
	}
	if err := checkCell(on, 1.425, lim); err == nil {
		t.Error("median off the half-rung grid accepted")
	}

	// A cell whose outputs differ from the first batch's fails.
	ch := smallCharacterize(t, 1, 4)
	if b, _ := ch.Batch(nil); b.Failed != 0 {
		t.Fatalf("first batch failed %d cells", b.Failed)
	}
	ch.first[2] += " tampered"
	if b, _ := ch.Batch(nil); b.Failed != 1 {
		t.Errorf("a diverging cell failed %d cells, want 1", b.Failed)
	}

	// A unit merged twice, or never, fails.
	f := newFleet(1, "")
	snap := sweepd.Status{Units: []sweepd.UnitStatus{
		{Unit: f.units[0], State: sweepd.UnitDone, Completions: 1},
		{Unit: f.units[1], State: sweepd.UnitDone, Completions: 2},
		{Unit: f.units[2], State: sweepd.UnitQuarantined},
	}}
	if got, want := f.checkSweep(snap, nil), 2; got != want {
		t.Errorf("checkSweep failed %d units, want %d", got, want)
	}
}

func TestFleetExactlyOnceAndExitLag(t *testing.T) {
	f := newFleet(3, t.TempDir())
	f.units = sweepd.ReplicaUnits([]string{"fig9"}, 3, true, 3)
	f.index = map[sweepd.UnitID]int{}
	for i, u := range f.units {
		f.index[u.ID] = i
	}
	tr := NewTracer()
	b, err := f.Batch(tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Attempted != 3 || b.Failed != 0 {
		t.Fatalf("attempted=%d failed=%d, want 3 merged exactly once", b.Attempted, b.Failed)
	}
	if got := b.Counts["sweepd.rpc.complete"]; got != 3 {
		t.Errorf("complete RPCs = %v, want 3", got)
	}
	if len(b.Ops) != 3 || b.ToLast <= 0 || b.ToLast > b.Wall {
		t.Fatalf("ops=%d to-last=%v wall=%v", len(b.Ops), b.ToLast, b.Wall)
	}
	if lag := b.Counts["sweepd.exit_lag_s"]; math.Abs(lag-(b.Wall-b.ToLast).Seconds()) > 1e-9 || lag < 0 {
		t.Errorf("exit lag %v, want wall-to-done %v", lag, (b.Wall - b.ToLast).Seconds())
	}
	if busy := b.Counts["sweepd.unit_busy_s"]; busy <= 0 || busy > fleetWorkers*b.ToLast.Seconds() {
		t.Errorf("unit busy %vs outside (0, %v]", busy, fleetWorkers*b.ToLast.Seconds())
	}
	if n := len(tr.Durations("fleet.unit")); n != 3 {
		t.Errorf("%d fleet.unit spans, want 3", n)
	}
	if failed, err := f.Finish(); err != nil || failed != 0 {
		t.Fatalf("in-process render check: failed=%d err=%v", failed, err)
	}
	f.results[f.units[1].ID] += "tampered"
	if failed, _ := f.Finish(); failed != 1 {
		t.Errorf("a tampered merge failed %d ops, want 1", failed)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "kid", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "kid", Start: ms(40), End: ms(70)}, // overlaps 2
		{ID: 4, Parent: 3, Name: "leaf", Start: ms(45), End: ms(55)},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"root": ms(40), "kid": ms(60), "leaf": ms(10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestProfileShares(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	stop, err := startProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	smallCharacterize(t, 1, 12).Batch(nil)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples taken")
	}
	var sum float64
	for _, p := range profPackages {
		v, ok := shares[p]
		if !ok || v < 0 {
			t.Errorf("share of %s = %v, %v", p, v, ok)
		}
		sum += v
	}
	if sum > 1+1e-9 || shares["system"]+shares["sim"]+shares["mesh"] == 0 {
		t.Errorf("shares %v: sum %v, no simulator time", shares, sum)
	}

	traces := `File: perfbench
Type: samples
-----------+-------------------------------------------------------
         3   runtime.memclrNoHeapPointers
             repro/internal/cache.(*SetAssoc).Reset (inline)
-----------+-------------------------------------------------------
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
         4   runtime.futex
             runtime.notesleep
-----------+-------------------------------------------------------
         1   repro/internal/mesh.(*Mesh).Route (inline)
             main.main
-----------+-------------------------------------------------------
         2   repro/internal/sweepd.jsonHandler[go.shape.struct { Unit string }].func5
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`
	got, n := sharesOf(parseTraces([]byte(traces)))
	if n != 12 || got["runtime"] != 5.0/12 || got["mesh"] != 1.0/12 || got["sweepd"] != 2.0/12 || got["cache"] != 0 {
		t.Errorf("shares of the sample traces = %v over %d samples, want runtime 5 (memclr + GC, not futex), mesh 1 and sweepd 2 of 12", got, n)
	}
	for fn, want := range map[string]string{
		"repro/internal/cache.(*SetAssoc).Lookup":    "cache",
		"repro/internal/channel/ufvariation.Run":     "channel",
		"runtime.memclrNoHeapPointers":               "runtime",
		"net/http.(*conn).serve":                     "other",
		"repro/internal/sweepd.(*Coordinator).Lease": "sweepd",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	e2e, _ := endToEnd([]time.Duration{time.Second}, []Batch{{Wall: 1, ToLast: 1, Ops: []time.Duration{1}}}, 1)
	check := func(kind string, declared []metric, code map[string]string) {
		got := map[string]string{}
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, code) {
			var missing []string
			for k := range code {
				if _, ok := got[k]; !ok {
					missing = append(missing, k)
				}
			}
			sort.Strings(missing)
			t.Errorf("%s metrics in BENCHMARK.json differ from the code (missing %v)", kind, missing)
		}
	}
	units := map[string]string{}
	for k, m := range e2e {
		units[k] = m.Unit
	}
	check("end_to_end", spec.EndToEnd, units)
	check("per_layer", spec.PerLayer, perLayerUnits)
}
