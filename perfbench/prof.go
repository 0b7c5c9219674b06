package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profPackages are the packages whose CPU self-time shares the traced run
// reports as prof.<pkg>. runtime counts only garbage collection and
// memory clearing, the runtime work a simulator change can move.
var profPackages = []string{
	"cache", "mesh", "timing", "sim", "system", "ufs", "workload",
	"channel", "sidechannel", "sweepd", "runtime",
}

// startProfile begins a CPU profile into path; the returned stop ends it.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileShares reads a CPU profile with the toolchain's pprof and
// returns each profPackages entry's share of the sampled CPU time,
// attributed by the leaf (self) frame, plus the number of samples. These
// shares are sampled, so they are reported for attribution and never
// gated.
func profileShares(path string) (map[string]float64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w: %s", path, err, stderr.Bytes())
	}
	shares, samples := sharesOf(parseTraces(out))
	return shares, samples, nil
}

// stack is one sampled call stack from `pprof -traces`, leaf first.
type stack struct {
	n      int64
	frames []string
}

// parseTraces reads `pprof -traces -sample_index=samples` output: blocks
// separated by "-----------+---" lines, each opening with the sample
// count and the leaf function, then one caller per line. Function names
// may hold spaces (generic shapes), so each is the rest of its line.
func parseTraces(out []byte) []stack {
	var stacks []stack
	open, leafNext := false, false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			open, leafNext = true, true
			continue
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if !open || line == "" {
			continue
		}
		if leafNext {
			leafNext = false
			count, name, _ := strings.Cut(line, " ")
			n, err := strconv.ParseInt(count, 10, 64)
			if err != nil {
				continue
			}
			stacks = append(stacks, stack{n: n, frames: []string{strings.TrimSpace(name)}})
		} else if len(stacks) > 0 {
			last := &stacks[len(stacks)-1]
			last.frames = append(last.frames, line)
		}
	}
	return stacks
}

// sharesOf attributes each stack's samples to the package of its leaf
// frame; runtime samples count only when they are GC or memclr work.
func sharesOf(stacks []stack) (map[string]float64, int64) {
	out := make(map[string]float64, len(profPackages))
	for _, k := range profPackages {
		out[k] = 0
	}
	var total int64
	for _, s := range stacks {
		total += s.n
		pkg := packageOf(s.frames[0])
		if pkg == "runtime" && !gcOrMemclr(s.frames) {
			continue
		}
		if _, ok := out[pkg]; ok {
			out[pkg] += float64(s.n)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out, total
}

// gcOrMemclr reports whether a runtime-leaf stack is memory clearing or
// runs under a garbage-collector entry point.
func gcOrMemclr(frames []string) bool {
	if strings.HasPrefix(frames[0], "runtime.memclr") {
		return true
	}
	for _, fn := range frames {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
			"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcStart":
			return true
		}
	}
	return false
}

// packageOf maps a fully qualified Go function name to the benchmark's
// package label: repro/internal/channel/ufvariation.F → "channel",
// runtime.mallocgc → "runtime", anything else → its import path head.
func packageOf(fn string) string {
	const internal = "repro/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 && !strings.Contains(fn[:i], "/") {
		return fn[:i]
	}
	return "other"
}
