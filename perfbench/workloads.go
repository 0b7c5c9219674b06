package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime/debug"

	"repro/internal/experiments"
)

// workloadNames lists the benchmark's workloads.
func workloadNames() []string { return []string{"catalog-quick", "characterize", "fleet"} }

// newWorkload builds the named workload from the seed; tmp is the
// directory it may create temporary state under.
func newWorkload(name string, seed uint64, tmp string) (Workload, error) {
	switch name {
	case "catalog-quick":
		return newCatalog(), nil
	case "characterize":
		return newCharacterize(seed), nil
	case "fleet":
		return newFleet(seed, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// perLayerUnits names every per-layer metric a traced run reports, with
// its unit. Every workload reports all of them; a layer the workload
// does not exercise reads 0.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"runner.slot_idle_s": "s",
		"runner.attempts":    "count",

		"system.new_ms":        "ms",
		"system.get_ms_p50":    "ms",
		"system.settle_ms_p50": "ms",
		"system.window_ms_p50": "ms",
		"system.pool_size":     "count",

		"sim.steps_per_op": "count",
		"sim.ns_per_step":  "ns",

		"ufs.epochs_per_op":      "count",
		"ufs.held_epochs_per_op": "count",

		"mesh.flit_hops_per_op": "count",

		"cache.inserts_per_op":   "count",
		"cache.evictions_per_op": "count",

		"sweepd.lease_ms_p50":       "ms",
		"sweepd.lease_ms_p90":       "ms",
		"sweepd.complete_ms_p50":    "ms",
		"sweepd.complete_ms_p90":    "ms",
		"sweepd.lease_empty":        "count",
		"sweepd.unit_busy_s":        "s",
		"sweepd.overhead_frac":      "frac",
		"sweepd.exit_lag_s":         "s",
		"sweepd.rpc.lease":          "count",
		"sweepd.rpc.heartbeat":      "count",
		"sweepd.rpc.complete":       "count",
		"sweepd.rpc.complete_batch": "count",
		"sweepd.rpc.release":        "count",

		"trace.overhead_frac": "frac",
		"trace.spans":         "count",
		"prof.samples":        "count",
	}
	for _, e := range experiments.All() {
		u["runner.exp_s."+e.ID] = "s"
	}
	for _, p := range profPackages {
		u["prof."+p] = "frac"
	}
	for _, s := range spanNames {
		u["self_s."+s] = "s"
	}
	return u
}()

// spanNames are the spans the workloads record: each names the public
// call it brackets, except the per-op roots (cell, fleet.unit).
var spanNames = []string{
	"runner.Run", "experiments.Experiment.Run",
	"cell", "system.Pool.Get", "system.Machine.Spawn",
	"system.Machine.Run.settle", "system.Machine.Run.window", "stats.Sorter.Median",
	"fleet.unit", "sweepd.Client.Lease", "sweepd.Client.Heartbeat",
	"sweepd.Client.Complete", "sweepd.UnitRunner",
}

// coldHeap collects the heap and returns its free pages to the OS, so a
// set-up that builds a platform machine faults its ~28 MB in anew, as a
// fresh process does, and no collection triggered by the previous
// set-up's garbage is timed. The fleet's set-up allocates little and
// runs warm.
func coldHeap() { debug.FreeOSMemory() }

// digest accumulates a batch's simulated outputs into a short hex
// fingerprint; two commits compare exactly at one seed.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// meanCount averages one per-batch count over batches.
func meanCount(bs []Batch, key string) float64 {
	if len(bs) == 0 {
		return 0
	}
	var s float64
	for _, b := range bs {
		s += b.Counts[key]
	}
	return s / float64(len(bs))
}

// perOp divides a count summed over batches by the ops they ran.
func perOp(bs []Batch, key string) float64 {
	var s float64
	var n int
	for _, b := range bs {
		s += b.Counts[key]
		n += len(b.Ops)
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
