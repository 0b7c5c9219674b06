package experiments

import (
	"fmt"
	"io"

	"repro/internal/defense"
	"repro/internal/sidechannel"
	"repro/internal/system"
)

// Sec61fResult contrasts the fingerprinting accuracy with and without the
// §6.1 range restriction: "limiting the range for UFS to no larger than
// 0.2 GHz makes it very difficult to distinguish the uncore frequency
// traces for different websites. However, this method cannot stop the
// covert channel."
type Sec61fResult struct {
	Sites                  int
	Top1Default, Top1Range float64
	Top5Default, Top5Range float64
}

// Render implements Result.
func (r Sec61fResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "§6.1: restricted UFS range (1.5-1.7 GHz) vs the fingerprinting side channel")
	fmt.Fprintf(w, "sites: %d\n", r.Sites)
	fmt.Fprintf(w, "default range:    top-1 %.1f%%  top-5 %.1f%%\n", r.Top1Default*100, r.Top5Default*100)
	fmt.Fprintf(w, "restricted range: top-1 %.1f%%  top-5 %.1f%%\n", r.Top1Range*100, r.Top5Range*100)
	fmt.Fprintln(w, "(the covert channel keeps its full capacity under the same restriction — see sec61)")
	return nil
}

// Sec61f runs the fingerprinting evaluation under both UFS ranges.
func Sec61f(opts Options) (Sec61fResult, error) {
	nsites, train, test := 24, 3, 2
	if opts.Quick {
		nsites, train, test = 10, 3, 1
	}
	eval := func(restrict bool) (sidechannel.FingerprintReport, error) {
		if err := opts.Checkpoint("sec61f: fingerprint restricted=%v", restrict); err != nil {
			return sidechannel.FingerprintReport{}, err
		}
		seed := opts.Seed
		// Visits run strictly one at a time, so the factory can recycle
		// the previous visit's machine before building the next; Reset
		// lifts the range restriction along with the rest of the state.
		var prev *system.Machine
		mk := func() *system.Machine {
			opts.Release(prev)
			seed++
			cfg := system.DefaultConfig()
			cfg.Seed = seed
			prev = bindMachine(opts.Machines.Get(cfg), opts)
			if restrict {
				for s := range prev.Sockets() {
					if err := defense.Deploy(defense.RestrictedRange, prev, s, 0); err != nil {
						panic(err)
					}
				}
			}
			return prev
		}
		rep, err := sidechannel.Fingerprint(mk, sidechannel.Sites(nsites), train, test)
		opts.Release(prev)
		return rep, err
	}
	def, err := eval(false)
	if err != nil {
		return Sec61fResult{}, err
	}
	res, err := eval(true)
	if err != nil {
		return Sec61fResult{}, err
	}
	return Sec61fResult{
		Sites:       nsites,
		Top1Default: def.Top1, Top5Default: def.Top5,
		Top1Range: res.Top1, Top5Range: res.Top5,
	}, nil
}

func init() {
	register(Experiment{ID: "sec61f", Title: "Restricted UFS range vs website fingerprinting", Run: func(o Options) (Result, error) { return Sec61f(o) }})
}
