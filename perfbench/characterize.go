package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cell kinds: L2-only pointer chase (Figure 3's "None" row), LLC traffic
// at a fixed hop distance 0..3, and stalling pointer chases (Figure 4).
const (
	kindL2Chase = -1
	kindStall   = 4
)

// Characterize cell timing, as Figure 3 in full mode.
const (
	cellSettle = 1500 * sim.Millisecond
	cellWindow = 500 * sim.Millisecond
)

// cellSpec is one characterize op: k threads of one kind on socket 0 of
// a machine seeded with Seed.
type cellSpec struct {
	Kind int
	K    int
	Seed uint64
}

// cellReps is how many times each (kind, k) pair appears in a batch.
// Every batch holds the same balanced grid, so the work per batch does
// not depend on the seed; the seed picks the order and machine seeds.
const cellReps = 2

// cellOps draws the batch's cell sequence from the seed.
func cellOps(seed uint64) []cellSpec {
	rng := rand.New(rand.NewPCG(seed, 0xce11))
	var cells []cellSpec
	for r := 0; r < cellReps; r++ {
		for kind := kindL2Chase; kind <= kindStall; kind++ {
			for k := 1; k <= 16; k++ {
				cells = append(cells, cellSpec{Kind: kind, K: k, Seed: rng.Uint64()})
			}
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// characterize is the characterize workload: Figure 3/4-shaped grid
// cells on one pooled machine, one cell at a time.
type characterize struct {
	cells    []cellSpec
	pool     *system.Pool
	srt      stats.Sorter
	newTimes []time.Duration
	ops      int64
	first    []string // per-cell outputs of the first batch
}

func newCharacterize(seed uint64) *characterize { return &characterize{cells: cellOps(seed)} }

// MinBatches gives every run at least 1000 cells.
func (c *characterize) MinBatches() int { return (1000 + len(c.cells) - 1) / len(c.cells) }

// Setup builds the first machine (system.New) into a fresh pool, on
// memory fresh from the OS as in a new process (coldHeap).
func (c *characterize) Setup() (time.Duration, error) {
	cfg := system.DefaultConfig()
	cfg.Seed = c.cells[0].Seed
	coldHeap()
	start := time.Now()
	m := system.New(cfg)
	d := time.Since(start)
	c.pool = &system.Pool{}
	c.pool.Put(m)
	c.newTimes = append(c.newTimes, d)
	return d, nil
}

// cellCounts are one cell's simulated work, read from public accessors.
type cellCounts struct {
	steps, epochs, held, inserts, evictions uint64
	flitHops                                float64
}

func readCounts(m *system.Machine) cellCounts {
	c := cellCounts{steps: uint64(m.Engine().Steps())}
	for _, s := range m.Sockets() {
		c.epochs += s.Gov.Epochs()
		c.held += s.Gov.HeldEpochs()
		ins, ev := s.Hier.Stats()
		c.inserts += ins
		c.evictions += ev
		c.flitHops += s.Mesh.TotalFlitHops()
	}
	return c
}

func (a cellCounts) minus(b cellCounts) cellCounts {
	return cellCounts{
		steps: a.steps - b.steps, epochs: a.epochs - b.epochs, held: a.held - b.held,
		inserts: a.inserts - b.inserts, evictions: a.evictions - b.evictions,
		flitHops: a.flitHops - b.flitHops,
	}
}

func (c *characterize) Batch(tr *Tracer) (Batch, error) {
	b := Batch{Counts: map[string]float64{}}
	d := newDigest()
	outs := make([]string, 0, len(c.cells))
	start := time.Now()
	for i, cell := range c.cells {
		c.ops++
		t0 := time.Now()
		root := tr.Begin("cell", c.ops, 0)
		med, cnt, err := c.runCell(cell, tr, c.ops, root.ID)
		tr.End(root)
		b.Ops = append(b.Ops, time.Since(t0))
		b.Attempted++
		b.Counts["sim.steps"] += float64(cnt.steps)
		b.Counts["ufs.epochs"] += float64(cnt.epochs)
		b.Counts["ufs.held"] += float64(cnt.held)
		b.Counts["cache.inserts"] += float64(cnt.inserts)
		b.Counts["cache.evictions"] += float64(cnt.evictions)
		b.Counts["mesh.flit_hops"] += cnt.flitHops
		out := fmt.Sprintf("%d %d %x median=%x steps=%d epochs=%d held=%d ins=%d ev=%d hops=%x",
			cell.Kind, cell.K, cell.Seed, math.Float64bits(med), cnt.steps, cnt.epochs, cnt.held,
			cnt.inserts, cnt.evictions, math.Float64bits(cnt.flitHops))
		if err == nil && c.first != nil && c.first[i] != out {
			// The same cell on the same seed must replay bit-for-bit.
			err = errors.New("outputs differ from the first batch's")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cell %+v: %v\n", cell, err)
			b.Failed++
		}
		outs = append(outs, out)
		d.add("%s", out)
	}
	if c.first == nil {
		c.first = outs
	}
	b.Wall = time.Since(start)
	b.ToLast = b.Wall
	b.Digest = d.sum()
	return b, nil
}

// runCell is one grid cell through the public calls fig3.go and fig4.go
// make: pooled machine, k threads, settle, 1 ms sampler, window, median.
// It returns the median, the cell's simulated work, and the error of
// the cell or of its output check.
func (c *characterize) runCell(cell cellSpec, tr *Tracer, op, parent int64) (float64, cellCounts, error) {
	cfg := system.DefaultConfig()
	cfg.Seed = cell.Seed
	sp := tr.Begin("system.Pool.Get", op, parent)
	m := c.pool.Get(cfg)
	tr.End(sp)
	defer c.pool.Put(m)
	before := readCounts(m)
	rl := m.Socket(0).MSR.Ratio()
	lim := [2]sim.Freq{rl.Min, rl.Max}

	sp = tr.Begin("system.Machine.Spawn", op, parent)
	err := spawnCell(m, cell)
	tr.End(sp)
	if err != nil {
		return 0, cellCounts{}, err
	}

	sp = tr.Begin("system.Machine.Run.settle", op, parent)
	m.Run(cellSettle)
	tr.End(sp)

	s := &trace.Series{Name: "median"}
	s.Reserve(int(cellWindow/sim.Millisecond) + 2)
	m.Engine().Add(&sim.Ticker{
		Name:     "sample-median",
		Period:   sim.Millisecond,
		Priority: 100, // after workloads and governor
		Fn:       func(now sim.Time) { s.Add(now, m.Socket(0).Uncore().GHz()) },
	})
	sp = tr.Begin("system.Machine.Run.window", op, parent)
	m.Run(cellWindow)
	tr.End(sp)

	sp = tr.Begin("stats.Sorter.Median", op, parent)
	c.srt.Reset()
	for _, smp := range s.Samples {
		c.srt.Add(smp.Value)
	}
	med := c.srt.Median()
	tr.End(sp)
	return med, readCounts(m).minus(before), checkCell(s.Samples, med, lim)
}

// spawnCell pins the cell's k threads to distinct socket-0 cores.
func spawnCell(m *system.Machine, cell cellSpec) error {
	die := m.Socket(0).Die
	if cell.K > die.NumCores() {
		return fmt.Errorf("%d threads on %d cores", cell.K, die.NumCores())
	}
	for i := 0; i < cell.K; i++ {
		switch cell.Kind {
		case kindL2Chase:
			m.Spawn(fmt.Sprintf("l2chase-%d", i), 0, i, 0, workload.L2Chase{})
		case kindStall:
			slice, _ := die.SliceAtHops(i, 0)
			m.Spawn(fmt.Sprintf("stall-%d", i), 0, i, 0, &workload.Stalling{Slice: slice})
		default:
			slice, ok := nearestSlice(m, i, cell.Kind)
			if !ok {
				return fmt.Errorf("core %d has no slice near %d hops", i, cell.Kind)
			}
			m.Spawn(fmt.Sprintf("traffic-%d", i), 0, i, 0, &workload.Traffic{Slice: slice})
		}
	}
	return nil
}

// nearestSlice returns a slice h hops from core, or the nearest distance
// to h that the floorplan offers (preferring farther), as fig3 pins
// threads on the irregular fused-off die.
func nearestSlice(m *system.Machine, core, h int) (int, bool) {
	die := m.Socket(0).Die
	for delta := 0; delta < die.Rows+die.Cols; delta++ {
		if s, ok := die.SliceAtHops(core, h+delta); ok {
			return s, true
		}
		if h-delta >= 0 {
			if s, ok := die.SliceAtHops(core, h-delta); ok {
				return s, true
			}
		}
	}
	return 0, false
}

// checkCell verifies a cell's outputs against the MSR limits: every
// sampled uncore frequency lies on the 100 MHz grid within the ratio
// limits, and so does the median — or, since a window of an even number
// of samples takes the mean of its two middle samples, the midpoint of
// two adjacent grid rungs (an L2-chase cell flipping between 1.4 and
// 1.5 GHz has median 1.45).
func checkCell(samples []trace.Sample, med float64, lim [2]sim.Freq) error {
	for _, smp := range samples {
		if err := onGrid(smp.Value, 1, lim); err != nil {
			return fmt.Errorf("sample at %v: %w", smp.At, err)
		}
	}
	if err := onGrid(med, 2, lim); err != nil {
		return fmt.Errorf("median: %w", err)
	}
	return nil
}

// onGrid checks ghz is a multiple of 100 MHz / div within [lo, hi].
func onGrid(ghz float64, div float64, lim [2]sim.Freq) error {
	steps := ghz * 10 * div
	if math.Abs(steps-math.Round(steps)) > 1e-9 {
		return fmt.Errorf("%.4f GHz is off the %g MHz grid", ghz, 100/div)
	}
	if r := ghz * 10; r < float64(lim[0])-1e-9 || r > float64(lim[1])+1e-9 {
		return fmt.Errorf("%.4f GHz outside the MSR ratio limits %v..%v", ghz, lim[0], lim[1])
	}
	return nil
}

func (c *characterize) Finish() (int, error) { return 0, nil }

func (c *characterize) Layers(bs []Batch, tr *Tracer) map[string]float64 {
	m := map[string]float64{
		"system.new_ms":          ms(median(c.newTimes)),
		"system.pool_size":       float64(c.pool.Size()),
		"sim.steps_per_op":       perOp(bs, "sim.steps"),
		"ufs.epochs_per_op":      perOp(bs, "ufs.epochs"),
		"ufs.held_epochs_per_op": perOp(bs, "ufs.held"),
		"mesh.flit_hops_per_op":  perOp(bs, "mesh.flit_hops"),
		"cache.inserts_per_op":   perOp(bs, "cache.inserts"),
		"cache.evictions_per_op": perOp(bs, "cache.evictions"),
	}
	if tr == nil {
		return m
	}
	settle, window := tr.Durations("system.Machine.Run.settle"), tr.Durations("system.Machine.Run.window")
	m["system.get_ms_p50"] = medianF(tr.Durations("system.Pool.Get"))
	m["system.settle_ms_p50"] = medianF(settle)
	m["system.window_ms_p50"] = medianF(window)
	var runMS, steps float64
	for _, x := range append(settle, window...) {
		runMS += x
	}
	for _, b := range bs {
		steps += b.Counts["sim.steps"]
	}
	if steps > 0 {
		m["sim.ns_per_step"] = runMS * 1e6 / steps
	}
	return m
}
