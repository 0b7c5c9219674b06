package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/system"
)

// renderOnce runs the experiment with the recorded-results options in
// Quick mode and returns its rendered report.
func renderOnce(t *testing.T, id string) []byte {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(Options{Seed: 0x5eed, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("%s: render: %v", id, err)
	}
	return buf.Bytes()
}

// TestGoldenOutputs pins the rendered reports of representative
// experiments to goldens captured before the hot-path overhaul (heap
// scheduler, dense mesh accounting, scratch-buffer caches). Any
// behavioural drift from the performance work — a reordered cohort, a
// float summed in a different order, a skipped sample — shows up here as
// a byte diff, not as a silently shifted result.
//
// Regenerate (only for an intentional behaviour change) by updating the
// files from the test failure output or re-running the generator in the
// PR that introduced them.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range []string{"fig3", "sync", "rel", "tab3", "sec61f", "ablate"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := renderOnce(t, id)
			path := filepath.Join("testdata", "golden_"+id+"_quick.txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", id, path, got, want)
			}
		})
	}
}

// TestPooledRunsIdentical runs each experiment once with fresh machines
// and twice against one shared Pool, requiring byte-identical reports.
// The second pooled run exercises recycled machines for every trial, so
// any state Machine.Reset fails to restore — a stale ticker, a replayed
// rng stream out of order, a dirty cache set — diverges the output.
//
// tab3 recycles one machine from cell to cell, so every column's
// environment (defences, way and slice partitions, TDM, stress threads)
// must be undone by Reset before the next cell; sec61f's second round
// starts its unrestricted visits on machines that carried the
// restricted-range defence; fig12 recycles a machine per site visit;
// ablate recycles machines built from mutated governor, noise and
// distance-weight configurations.
func TestPooledRunsIdentical(t *testing.T) {
	for _, id := range []string{"fig3", "sync", "rel", "sec61", "tab3", "sec61f", "fig12", "ablate"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fresh := renderOnce(t, id)
			e, _ := Get(id)
			pool := &system.Pool{}
			for round := 0; round < 2; round++ {
				res, err := e.Run(Options{Seed: 0x5eed, Quick: true, Machines: pool})
				if err != nil {
					t.Fatalf("%s pooled round %d: %v", id, round, err)
				}
				var buf bytes.Buffer
				if err := res.Render(&buf); err != nil {
					t.Fatalf("%s pooled round %d: render: %v", id, round, err)
				}
				if !bytes.Equal(fresh, buf.Bytes()) {
					t.Errorf("%s: pooled round %d diverged from fresh-machine run\n--- fresh ---\n%s\n--- pooled ---\n%s", id, round, fresh, buf.Bytes())
				}
			}
			if pool.Size() == 0 {
				t.Errorf("%s: pool never received a released machine", id)
			}
		})
	}
}

// TestRunTwiceIdentical runs experiments twice with the same seed and
// requires byte-identical reports: the simulation must be a pure
// function of its options. This catches nondeterminism the goldens
// cannot — state leaked between runs through package-level scratch
// (pools, reused buffers) or iteration-order-dependent accumulation.
func TestRunTwiceIdentical(t *testing.T) {
	for _, id := range []string{"fig3", "sync"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			first := renderOnce(t, id)
			second := renderOnce(t, id)
			if !bytes.Equal(first, second) {
				t.Errorf("%s: two runs with the same seed rendered different reports\n--- first ---\n%s\n--- second ---\n%s", id, first, second)
			}
		})
	}
}
