package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// AblationResult quantifies how the model's calibration choices
// (DESIGN.md §4) produce the paper's observables: the PMU's
// status-sampling window sets the Figure 10 knee, the correlated
// measurement noise sets the error floor, and the distance weighting
// creates the Figure 3 interconnect column.
type AblationResult struct {
	// TailWindow: BER at a fast (16 ms) and a safe (28 ms) interval per
	// sampling-window length.
	TailWindowMS []float64
	BERFast      []float64
	BERSafe      []float64

	// Drift noise: BER at the capacity-peak interval per noise level.
	DriftStd []float64
	BERPeak  []float64

	// Distance weighting: the Figure 3 "1 thread" column per traffic
	// type with the default superlinear weights vs flat-linear ones.
	Fig3Types      []int
	OneThreadSuper []float64
	OneThreadFlat  []float64
}

// Render implements Result.
func (r AblationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablations of the model's calibration choices (DESIGN.md §4)")
	fmt.Fprintln(w, "\n(a) PMU status-sampling window → Figure 10 knee position")
	fmt.Fprintln(w, "tail_ms\tBER@16ms\tBER@28ms")
	for i := range r.TailWindowMS {
		fmt.Fprintf(w, "%.0f\t%.3f\t%.3f\n", r.TailWindowMS[i], r.BERFast[i], r.BERSafe[i])
	}
	fmt.Fprintln(w, "\n(b) correlated measurement noise → error floor at the capacity peak (20 ms)")
	fmt.Fprintln(w, "drift_std_cycles\tBER@20ms")
	for i := range r.DriftStd {
		fmt.Fprintf(w, "%.1f\t%.3f\n", r.DriftStd[i], r.BERPeak[i])
	}
	fmt.Fprintln(w, "\n(c) distance weighting → the Figure 3 single-thread column")
	fmt.Fprintln(w, "traffic\tsuperlinear_W(GHz)\tflat_W(GHz)")
	for i, tt := range r.Fig3Types {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", trafficTypeName(tt), r.OneThreadSuper[i], r.OneThreadFlat[i])
	}
	return nil
}

// ablationBER measures UF-variation's BER on a machine built by mutate.
func ablationBER(opts Options, interval sim.Time, nbits int, mutate func(*system.Config)) (float64, error) {
	var errBits, tot int
	trials := 2
	if opts.Quick {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		cfg := system.DefaultConfig()
		cfg.Seed = opts.Seed + uint64(trial)*7919
		mutate(&cfg)
		m := bindMachine(opts.Machines.Get(cfg), opts)
		c := ufvariation.DefaultConfig()
		c.Interval = interval
		c.Lead = 40*sim.Millisecond + sim.Time(trial)*3700*sim.Microsecond
		bits := channel.RandomBits(m.Rand(uint64(interval)), nbits)
		res, err := ufvariation.Run(m, c, bits)
		opts.Release(m)
		if err != nil {
			return 0, err
		}
		tot += nbits
		errBits += int(res.BER*float64(nbits) + 0.5)
	}
	return float64(errBits) / float64(tot), nil
}

// Ablate runs the three ablations.
func Ablate(opts Options) (AblationResult, error) {
	nbits := 96
	if opts.Quick {
		nbits = 40
	}
	var res AblationResult

	// (a) Tail window → knee. A short window reacts to mid-epoch
	// changes and keeps fast intervals clean; a long one delays the
	// reaction and pushes the knee right.
	for _, tailMS := range []float64{2, 5, 8, 10} {
		if err := opts.Checkpoint("ablate: tail-window=%vms", tailMS); err != nil {
			return res, err
		}
		tail := sim.Time(tailMS) * sim.Millisecond
		fast, err := ablationBER(opts, 16*sim.Millisecond, nbits, func(c *system.Config) { c.UFS.TailWindow = tail })
		if err != nil {
			return res, err
		}
		safe, err := ablationBER(opts, 28*sim.Millisecond, nbits, func(c *system.Config) { c.UFS.TailWindow = tail })
		if err != nil {
			return res, err
		}
		res.TailWindowMS = append(res.TailWindowMS, tailMS)
		res.BERFast = append(res.BERFast, fast)
		res.BERSafe = append(res.BERSafe, safe)
	}

	// (b) Drift noise → error floor near the peak.
	for _, std := range []float64{0, 0.5, 1.5} {
		if err := opts.Checkpoint("ablate: drift-std=%v", std); err != nil {
			return res, err
		}
		ber, err := ablationBER(opts, 20*sim.Millisecond, nbits, func(c *system.Config) {
			c.Timing.DriftStd = std
			c.UFS.Timing.DriftStd = std
		})
		if err != nil {
			return res, err
		}
		res.DriftStd = append(res.DriftStd, std)
		res.BERPeak = append(res.BERPeak, ber)
	}

	// (c) Distance weighting → Figure 3's single-thread column. With
	// flat weights (W(h)=h) one far-slice thread no longer reaches the
	// maximum frequency and the paper's grid breaks.
	for _, tt := range []int{0, 1, 2, 3} {
		if err := opts.Checkpoint("ablate: distance-weight hops=%d", tt); err != nil {
			return res, err
		}
		super, err := ablationFig3Cell(opts, tt, nil)
		if err != nil {
			return res, err
		}
		flat, err := ablationFig3Cell(opts, tt, []float64{0, 1, 2, 3})
		if err != nil {
			return res, err
		}
		res.Fig3Types = append(res.Fig3Types, tt)
		res.OneThreadSuper = append(res.OneThreadSuper, super)
		res.OneThreadFlat = append(res.OneThreadFlat, flat)
	}
	return res, nil
}

// ablationFig3Cell measures the stabilized frequency of one traffic
// thread at hop distance tt, optionally overriding the distance weights.
func ablationFig3Cell(opts Options, tt int, weights []float64) (float64, error) {
	cfg := system.DefaultConfig()
	cfg.Seed = opts.Seed
	if weights != nil {
		cfg.UFS.DistWeight = weights
	}
	m := bindMachine(opts.Machines.Get(cfg), opts)
	defer opts.Release(m)
	pairs, err := coresWithSliceAt(m, 0, tt, 1)
	if err != nil {
		return 0, err
	}
	m.Spawn("traffic", 0, pairs[0][0], 0, &workload.Traffic{Slice: pairs[0][1]})
	return medianFreq(m, 0, 1200*sim.Millisecond, 400*sim.Millisecond), nil
}

func init() {
	register(Experiment{ID: "ablate", Title: "Ablations of the governor and noise calibration", Run: func(o Options) (Result, error) { return Ablate(o) }})
}
