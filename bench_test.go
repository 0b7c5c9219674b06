package repro_test

// One benchmark per table and figure of the paper's evaluation. Each runs
// the experiment in its quick configuration (full sweeps belong to
// cmd/ufsim and the long-mode tests) and reports the experiment's headline
// metric alongside the usual time/op.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/system"
	"repro/internal/workload"
)

// benchOpts returns iteration i's options. Every iteration of one
// benchmark draws its machines from the same pool, as the runner's sweep
// workers do, so the figures measure recycled machines rather than
// system.New.
func benchOpts(pool *system.Pool, i int) experiments.Options {
	return experiments.Options{Seed: 0x5eed + uint64(i), Quick: true, Machines: pool}
}

func BenchmarkFig3UncoreFreqVsUtilization(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		// Headline cell: one 3-hop thread saturates the uncore.
		b.ReportMetric(res.Freq[len(res.Freq)-1][0], "GHz@3hop1thr")
	}
}

func BenchmarkFig4StallProportion(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Freq[0][0], "GHz@1stall0busy")
	}
}

func BenchmarkFig5RampUp(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.StepMS) > 1 {
			b.ReportMetric(res.StepMS[1], "ms/step")
		}
	}
}

func BenchmarkFig6RampDown(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.StepMS) > 0 {
			b.ReportMetric(res.StepMS[0], "ms/step")
		}
	}
}

func BenchmarkFig7CrossSocket(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		end := res.Traces[1].Samples[len(res.Traces[1].Samples)-1].Value
		b.ReportMetric(end, "followerGHz")
	}
}

func BenchmarkSec32StallRatios(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec32(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ChaseRatio, "stallratio")
	}
}

func BenchmarkFig8LatencyVsFrequency(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary[0][len(res.Freqs)-1].Mean, "cycles@2.4GHz")
	}
}

func BenchmarkFig9Transmission(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Res.BER, "BER")
	}
}

func BenchmarkFig10CapacityCrossCore(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.PeakCapacity(res.CrossCore).Capacity, "bit/s")
	}
}

func BenchmarkFig10CapacityCrossProcessor(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.PeakCapacity(res.CrossProcessor).Capacity, "bit/s")
	}
}

func BenchmarkTable2StressCapacity(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tab2(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Capacity[0], "bit/s@N1")
	}
}

func BenchmarkTable3Matrix(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tab3(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		functional := 0
		for _, row := range res.Rows {
			for _, c := range res.Cells[row] {
				if c.Functional {
					functional++
				}
			}
		}
		b.ReportMetric(float64(functional), "functionalcells")
	}
}

func BenchmarkFig11FileSize(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy*100, "accuracy%")
	}
}

func BenchmarkFig12Fingerprint(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.Top1*100, "top1%")
	}
}

func BenchmarkSec61Countermeasures(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		var restricted float64
		for _, c := range res.Cases {
			if c.Name == "restricted-range" {
				restricted = c.Capacity
			}
		}
		b.ReportMetric(restricted, "bit/s@restricted")
	}
}

// benchBusyMachine builds a machine with a representative mixed load:
// traffic threads, a stalling thread, and a measurement probe.
func benchBusyMachine(b *testing.B) *system.Machine {
	b.Helper()
	m := system.New(system.DefaultConfig())
	for c := 0; c < 6; c++ {
		slice, ok := m.Socket(0).Die.SliceAtHops(c, 1)
		if !ok {
			slice, _ = m.Socket(0).Die.SliceAtHops(c, 0)
		}
		m.Spawn("bench-traffic", 0, c, 0, &workload.Traffic{Slice: slice})
	}
	slice, _ := m.Socket(0).Die.SliceAtHops(8, 0)
	m.Spawn("bench-stall", 0, 8, 0, &workload.Stalling{Slice: slice})
	lines, err := memsys.EvictionList(m.Socket(0).Hier, 0, memsys.NewAllocator(), 10, slice, 20)
	if err != nil {
		b.Fatal(err)
	}
	m.Spawn("bench-probe", 0, 9, 0, &workload.Measure{Lines: lines, PerQuantum: 20})
	return m
}

// BenchmarkMachineQuantum times the simulator's core loop: one busy
// machine advancing a single quantum.
func BenchmarkMachineQuantum(b *testing.B) {
	m := benchBusyMachine(b)
	q := m.Config().Quantum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(q)
	}
}

// BenchmarkMachineEpoch times one full governor epoch of the busy machine.
func BenchmarkMachineEpoch(b *testing.B) {
	m := benchBusyMachine(b)
	e := m.Config().UFS.Epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(e)
	}
}

func BenchmarkSec61EnergyTradeoff(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61e(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "fixed-frequency" {
				b.ReportMetric(row.OverheadPct, "overhead%")
			}
		}
	}
}

func BenchmarkFig10xVariants(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10x(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].CrossCoreC, "bit/s")
	}
}

func BenchmarkAblations(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablate(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BERFast[len(res.BERFast)-1], "BER@16ms/10mswin")
	}
}

func BenchmarkSec61fFingerprintDefence(b *testing.B) {
	pool := &system.Pool{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec61f(benchOpts(pool, i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Top1Range*100, "top1%@restricted")
	}
}
