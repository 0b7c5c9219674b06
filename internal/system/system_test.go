package system

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/sim"
)

func newTestMachine(seed uint64) *Machine {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return New(cfg)
}

// spin is an always-active compute workload.
func spin() Workload {
	return WorkloadFunc(func(ctx *Ctx) Activity {
		return Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Quantum())}
	})
}

func TestMachineComposition(t *testing.T) {
	m := newTestMachine(1)
	if len(m.Sockets()) != 2 {
		t.Fatalf("%d sockets, want 2 (Table 1)", len(m.Sockets()))
	}
	for _, s := range m.Sockets() {
		if len(s.Cores) != 16 {
			t.Errorf("socket %d has %d cores", s.ID, len(s.Cores))
		}
		if s.Hier.Geometry().Slices != 16 {
			t.Errorf("socket %d has %d slices", s.ID, s.Hier.Geometry().Slices)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Dies = nil },
		func(c *Config) { c.Quantum = 0 },
		func(c *Config) { c.Quantum = 300 * sim.Microsecond }, // epoch not a multiple
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted")
				}
			}()
			New(cfg)
		}()
	}
}

func TestSpawnCollisionPanics(t *testing.T) {
	m := newTestMachine(2)
	m.Spawn("a", 0, 3, 0, spin())
	defer func() {
		if recover() == nil {
			t.Fatal("double spawn on one core accepted")
		}
	}()
	m.Spawn("b", 0, 3, 0, spin())
}

func TestStoppedCoreFreesUp(t *testing.T) {
	m := newTestMachine(3)
	th := m.Spawn("a", 0, 3, 0, spin())
	th.Stop()
	// Core is free again.
	m.Spawn("b", 0, 3, 0, spin())
	if !m.CoreBusy(0, 3) {
		t.Error("CoreBusy false with a live thread")
	}
	if m.CoreBusy(0, 4) {
		t.Error("CoreBusy true for an empty core")
	}
}

func TestFreeCore(t *testing.T) {
	m := newTestMachine(4)
	c := m.FreeCore(0, 15)
	if c != 14 {
		t.Errorf("FreeCore avoiding 15 = %d, want 14", c)
	}
	m.Spawn("x", 0, 14, 0, spin())
	if got := m.FreeCore(0, 15); got != 13 {
		t.Errorf("FreeCore = %d, want 13", got)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	m := newTestMachine(5)
	m.Run(42 * sim.Millisecond)
	if m.Now() != 42*sim.Millisecond {
		t.Errorf("Now() = %v", m.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		m := newTestMachine(7)
		lines := []cache.Line{1 << 20, 1<<20 + 1024, 1<<20 + 2048}
		var lats []float64
		m.Spawn("probe", 0, 0, 0, WorkloadFunc(func(ctx *Ctx) Activity {
			for _, l := range lines {
				lats = append(lats, ctx.TimedAccess(l))
			}
			return Activity{Active: true, Cycles: ctx.CoreFreq().CyclesIn(ctx.Remaining())}
		}))
		m.Run(10 * sim.Millisecond)
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different sample counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCtxTimedAccessAdvancesClock(t *testing.T) {
	m := newTestMachine(8)
	var first, second sim.Time
	m.Spawn("probe", 0, 0, 0, WorkloadFunc(func(ctx *Ctx) Activity {
		if first == 0 {
			first = ctx.Now()
			ctx.TimedAccess(1 << 20)
			second = ctx.Now()
		}
		return Activity{}
	}))
	m.Run(sim.Millisecond)
	if second <= first {
		t.Error("TimedAccess did not advance the thread clock")
	}
}

func TestCtxRemainingDecreases(t *testing.T) {
	m := newTestMachine(9)
	done := false
	m.Spawn("probe", 0, 0, 0, WorkloadFunc(func(ctx *Ctx) Activity {
		if !done {
			done = true
			r0 := ctx.Remaining()
			for i := 0; i < 100; i++ {
				ctx.Access(cache.Line(1<<20 + i*4096))
			}
			if ctx.Remaining() >= r0 {
				t.Error("Remaining did not decrease")
			}
		}
		return Activity{}
	}))
	m.Run(sim.Millisecond)
	if !done {
		t.Fatal("workload never ran")
	}
}

func TestUncoreFreqRespondsToLoad(t *testing.T) {
	m := newTestMachine(10)
	// An idle machine dithers at the idle point.
	m.Run(100 * sim.Millisecond)
	if f := m.Socket(0).Uncore(); f < 14 || f > 15 {
		t.Fatalf("idle uncore at %v", f)
	}
	// The governor responds to injected traffic pressure.
	m.Spawn("load", 0, 0, 0, WorkloadFunc(func(ctx *Ctx) Activity {
		n := 60000.0
		ctx.InjectTraffic(3, n)
		cycles := ctx.CoreFreq().CyclesIn(ctx.Quantum())
		return Activity{Active: true, Cycles: cycles}
	}))
	m.Run(300 * sim.Millisecond)
	if f := m.Socket(0).Uncore(); f < 20 {
		t.Errorf("uncore at %v under heavy injected traffic", f)
	}
}

func TestWakeLatencyStates(t *testing.T) {
	m := newTestMachine(11)
	rng := m.Rand(1)
	// Fully idle machine: deep core, deep package, deep platform.
	m.Run(100 * sim.Millisecond)
	idle := m.WakeLatency(0, 3, rng)
	if idle < 300*sim.Microsecond {
		t.Errorf("fully idle wake %v, want ≥340us (core+PC+platform)", idle)
	}
	// A busy core on the other socket keeps the platform awake.
	m.Spawn("busy", 1, 0, 0, spin())
	m.Run(50 * sim.Millisecond)
	busy := m.WakeLatency(0, 3, rng)
	if busy >= idle {
		t.Errorf("wake with busy platform %v not below idle %v", busy, idle)
	}
	if m.PlatformIdle() {
		t.Error("platform idle with an active core")
	}
}

func TestActivityAdd(t *testing.T) {
	var a Activity
	a.Add(Activity{Active: true, Cycles: 1, StallCycles: 2, LLCAccesses: 3, Pressure: 4, PowerUnits: 5})
	a.Add(Activity{Cycles: 1})
	if !a.Active || a.Cycles != 2 || a.StallCycles != 2 || a.LLCAccesses != 3 || a.Pressure != 4 || a.PowerUnits != 5 {
		t.Errorf("Add result %+v", a)
	}
}

func TestQuantumPowerVisibleToLaterThreads(t *testing.T) {
	m := newTestMachine(12)
	m.Spawn("drawer", 0, 0, 0, WorkloadFunc(func(ctx *Ctx) Activity {
		return Activity{Active: true, Cycles: 1, PowerUnits: 3}
	}))
	var seen float64
	m.Spawn("reader", 0, 1, 0, WorkloadFunc(func(ctx *Ctx) Activity {
		seen = ctx.Thread().Sock.QuantumPower()
		return Activity{Active: true, Cycles: 1}
	}))
	m.Run(sim.Millisecond)
	if seen != 3 {
		t.Errorf("reader saw %v power units, want 3 (spawn-order visibility)", seen)
	}
}

func TestDVFSPowersave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.DVFS = cpu.DefaultDVFS(cpu.PolicyPowersave)
	m := New(cfg)
	m.Spawn("busy", 0, 0, 0, spin())
	m.Run(100 * sim.Millisecond)
	// The busy core reaches base; idle cores park at the floor.
	if f := m.Socket(0).Cores[0].Freq; f != cfg.CoreBase {
		t.Errorf("busy core at %v, want base %v", f, cfg.CoreBase)
	}
	if f := m.Socket(0).Cores[5].Freq; f != cfg.DVFS.Min {
		t.Errorf("idle core at %v, want floor %v", f, cfg.DVFS.Min)
	}
	// Powersave never exceeds base, so UFS stays enabled: the stall
	// rule can still raise the uncore.
	if m.Socket(0).Uncore() > 15 {
		t.Errorf("uncore at %v with one compute thread", m.Socket(0).Uncore())
	}
}

func TestDVFSPerformanceDisablesUFS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 14
	cfg.DVFS = cpu.DefaultDVFS(cpu.PolicyPerformance)
	m := New(cfg)
	m.Spawn("busy", 0, 0, 0, spin())
	m.Run(100 * sim.Millisecond)
	if f := m.Socket(0).Cores[0].Freq; f <= cfg.CoreBase {
		t.Fatalf("performance policy left the busy core at %v", f)
	}
	// §2.2.1: a core above base pins the uncore at its maximum.
	if f := m.Socket(0).Uncore(); f != 24 {
		t.Errorf("uncore at %v with a turbo core, want pinned max", f)
	}
}

// TestNewMachineAllocatesLittle pins what building an idle machine costs.
// Cache arrays allocate their tag storage on first fill, so constructing
// the two-socket Table 1 platform must not pay for the ~20 MB of L1, L2
// and LLC arrays of cores and slices that nothing has touched yet.
func TestNewMachineAllocatesLittle(t *testing.T) {
	const limit = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("New(DefaultConfig()) allocated %.1f MB, want at most %d MB", float64(got)/(1<<20), limit>>20)
	}
}
