package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/system"
)

// goldenSeed is the seed the committed golden renders were taken at.
const goldenSeed = 0x5eed

// goldenIDs are the experiments with committed quick-mode goldens.
var goldenIDs = []string{"fig3", "rel", "sync"}

// catalogJobs is the runner width, as `ufsim -experiment all -quick -jobs 2`.
const catalogJobs = 2

// catalog is the catalog-quick workload: one batch is the whole
// registered catalog in quick mode through runner.Run with two jobs; one
// op is one experiment.
//
// The catalog always runs at the recorded seed, as users and CI run it,
// so every pass is also checked against the goldens. The workload seed
// does not change its inputs: the quick sync and rel experiments do up to
// twice the work at some seeds, which would turn the seed into timing
// spread; characterize and fleet carry the seed-varied simulation.
type catalog struct {
	seed   uint64 // experiment seed, always goldenSeed
	root   string // checkout root, where the goldens live
	exps   []experiments.Experiment
	golden map[string][]byte
	first  map[string][]byte // renders of the first pass
	ops    int64
}

func newCatalog() *catalog { return &catalog{seed: goldenSeed, root: "."} }

func (c *catalog) MinBatches() int { return 5 }

// Setup lists the catalog, loads the goldens and builds one platform
// machine — the cold construction each runner job pays before its first
// trial — on memory fresh from the OS (coldHeap).
func (c *catalog) Setup() (time.Duration, error) {
	coldHeap()
	start := time.Now()
	c.exps = experiments.All()
	c.golden = map[string][]byte{}
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join(c.root, "internal", "experiments", "testdata", "golden_"+id+"_quick.txt"))
		if err != nil {
			return 0, fmt.Errorf("loading golden: %w", err)
		}
		c.golden[id] = b
	}
	cfg := system.DefaultConfig()
	cfg.Seed = c.seed
	system.New(cfg)
	return time.Since(start), nil
}

// Batch runs one catalog pass. In the traced phase every experiment's
// Run is wrapped in a span whose parent is the runner.Run span.
func (c *catalog) Batch(tr *Tracer) (Batch, error) {
	exps := c.exps
	root := tr.Begin("runner.Run", 0, 0)
	if tr != nil {
		exps = make([]experiments.Experiment, len(c.exps))
		for i, e := range c.exps {
			orig, op := e.Run, c.ops+int64(i)+1
			e.Run = func(o experiments.Options) (experiments.Result, error) {
				sp := tr.Begin("experiments.Experiment.Run", op, root.ID)
				defer tr.End(sp)
				return orig(o)
			}
			exps[i] = e
		}
	}
	c.ops += int64(len(exps))

	start := time.Now()
	sum, err := runner.Run(context.Background(), runner.Config{Jobs: catalogJobs, Seed: c.seed, Quick: true}, exps)
	wall := time.Since(start)
	tr.End(root)
	if err != nil {
		return Batch{}, fmt.Errorf("runner: %w", err)
	}

	b := Batch{Wall: wall, ToLast: wall, Counts: map[string]float64{}}
	renders := map[string][]byte{}
	d := newDigest()
	for _, rep := range sum.Reports {
		b.Attempted++
		b.Ops = append(b.Ops, rep.Duration)
		b.Counts["runner.attempts"] += float64(rep.Attempts)
		b.Counts["runner.exp_s."+rep.ID] += rep.Duration.Seconds()
		b.Counts["runner.busy_s"] += rep.Duration.Seconds()
		out, ok := c.check(rep)
		if !ok {
			b.Failed++
		}
		renders[rep.ID] = out
		d.add("%s %s attempts=%d\n%s", rep.ID, rep.Status, rep.Attempts, out)
	}
	if c.first == nil {
		c.first = renders
	}
	b.Digest = d.sum()
	return b, nil
}

// check renders one report and verifies it: the experiment is done, its
// render matches the first pass's (the simulation is a pure function of
// the seed), and where a golden exists it is byte-equal to it.
func (c *catalog) check(rep runner.Report) ([]byte, bool) {
	if rep.Status != runner.StatusDone || rep.Result == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", rep.ID, rep.Status, rep.Err)
		return nil, false
	}
	var buf bytes.Buffer
	if err := rep.Result.Render(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: rendering %s: %v\n", rep.ID, err)
		return nil, false
	}
	out := buf.Bytes()
	if prev, ok := c.first[rep.ID]; ok && !bytes.Equal(prev, out) {
		fmt.Fprintf(os.Stderr, "perfbench: %s render differs from the first pass at the same seed\n", rep.ID)
		return out, false
	}
	if want, ok := c.golden[rep.ID]; ok && !bytes.Equal(want, out) {
		fmt.Fprintf(os.Stderr, "perfbench: %s render differs from its golden\n", rep.ID)
		return out, false
	}
	return out, true
}

func (c *catalog) Finish() (int, error) { return 0, nil }

func (c *catalog) Layers(bs []Batch, tr *Tracer) map[string]float64 {
	m := map[string]float64{"runner.attempts": meanCount(bs, "runner.attempts")}
	for _, e := range c.exps {
		m["runner.exp_s."+e.ID] = meanCount(bs, "runner.exp_s."+e.ID)
	}
	var idle float64
	for _, b := range bs {
		idle += catalogJobs*b.Wall.Seconds() - b.Counts["runner.busy_s"]
	}
	m["runner.slot_idle_s"] = idle / float64(len(bs))
	return m
}
