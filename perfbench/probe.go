package main

// Machine-speed normalisation. On a shared host the same step's CPU time
// swings by ±30% from minute to minute: neighbours on the host slow the
// cores down, and it shows as longer CPU time, not as steal. A run's median
// step wall then tracks the host's load more than the program. So after
// every step, once every rank has left it and while the other ranks wait
// at the benchmark's barrier, rank 0 times a fixed probe kernel of the
// benchmark's own on as many lanes as the workload has busy goroutines.
// The gated step-time metrics scale each step wall by probeRef ÷ (the
// probe's wall around that step): the step's time on a host running the
// probe at its nominal speed. The raw walls are reported alongside in the
// run record. Set-up times are scaled the same way, by the probe's speed
// measured right after each set-up.
//
// The program can still slow the probe down between steps — a worker that
// spins while idle, a goroutine of its own, garbage collection its
// allocations started — and so make its steps look faster. All of these
// burn CPU in the process outside the probe's lanes while the probe runs,
// so each pass measures that foreign CPU time (process CPU clock minus the
// lanes' thread CPU clocks). The probe check compares it between steps with
// the same probe taken while no simulation exists. It does not compare the
// probe walls themselves: those drifted with the host by −36% to +43%
// between the idle samples and the stepping over 14 runs (measured), and
// absorbing that drift is what the probe is for.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// probeRef is the nominal wall of one probe pass, about its median (5–8 ms)
// on the 2-vCPU Xeon host (2.1 GHz) the benchmark was defined on. It only
// sets the scale; comparisons between runs do not depend on it.
const probeRef = 6e-3

// probeWindow is the number of neighbouring probe walls whose median
// estimates the host speed around one step (a slow spell lasts seconds,
// a step a fraction of one).
const probeWindow = 5

// speedProbe is the probe: transcendental arithmetic streaming through
// 4 MiB per lane, about the per-point mix of the solver's kernels and more
// than a core's L2, so it slows down under the same contention. With
// several lanes the work is cut into chunks that the lanes pull as they
// go, as the pool hands out tiles, so a core slowed by a neighbour takes
// fewer chunks instead of setting the wall.
type speedProbe struct {
	lanes int
	a, b  []float64
	cpu   []float64 // per lane: thread CPU seconds of the last pass
}

const probeChunk = 1 << 12

func newSpeedProbe(lanes int) *speedProbe {
	lanes = max(lanes, 1)
	p := &speedProbe{lanes: lanes, a: make([]float64, lanes<<18), b: make([]float64, lanes<<18), cpu: make([]float64, lanes)}
	for i := range p.b {
		p.b[i] = float64(i%1000) * 1e-3
	}
	return p
}

// probeSample is one probe pass.
type probeSample struct {
	Wall float64 // seconds
	// Foreign is the CPU time other goroutines of the process used while
	// the probe ran, as a share of the process's capacity (GOMAXPROCS ×
	// wall).
	Foreign float64
}

// run times one probe pass. Each lane stays on its OS thread so that its
// thread CPU clock covers exactly its share of the work.
func (p *speedProbe) run() probeSample {
	t0 := time.Now()
	c0 := cpuClock(clockProcessCPU)
	var next atomic.Int64
	lane := func(l int) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := cpuClock(clockThreadCPU)
		for {
			lo := int(next.Add(probeChunk)) - probeChunk
			if lo >= len(p.a) {
				break
			}
			a, b := p.a[lo:lo+probeChunk], p.b[lo:lo+probeChunk]
			for i := range a {
				a[i] = math.Exp(b[i]) + math.Log(1+a[i]*1e-6)
			}
		}
		p.cpu[l] = cpuClock(clockThreadCPU) - start
	}
	var wg sync.WaitGroup
	wg.Add(p.lanes - 1)
	for l := 1; l < p.lanes; l++ {
		go func() {
			defer wg.Done()
			lane(l)
		}()
	}
	lane(0)
	wg.Wait()
	cpu := cpuClock(clockProcessCPU) - c0
	wall := time.Since(t0).Seconds()
	for _, c := range p.cpu {
		cpu -= c
	}
	return probeSample{Wall: wall, Foreign: max(cpu, 0) / (wall * float64(runtime.GOMAXPROCS(0)))}
}

// speed is the median wall of n probe passes, in seconds.
func (p *speedProbe) speed(n int) float64 {
	return median(probeWalls(p.passes(n)))
}

// passes runs n probe passes.
func (p *speedProbe) passes(n int) []probeSample {
	out := make([]probeSample, n)
	for i := range out {
		out[i] = p.run()
	}
	return out
}

func probeWalls(s []probeSample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.Wall
	}
	return out
}

func probeForeign(s []probeSample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.Foreign
	}
	return out
}

// Linux clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuClock reads a CPU-time clock, in seconds.
func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(%d): %v", id, errno))
	}
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}

// normalise scales each wall by probeRef over the median probe wall in a
// window of probeWindow steps centred on it. walls and probes pair up by
// index.
func normalise(walls, probes []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		lo := max(0, i-probeWindow/2)
		hi := min(len(probes), lo+probeWindow)
		lo = max(0, hi-probeWindow)
		out[i] = w * probeRef / median(probes[lo:hi])
	}
	return out
}

// foreignTolerance is how much more foreign CPU, as a share of the
// process's capacity, the median probe pass between steps may see than the
// median idle pass before the probe check fails. On the 2-vCPU test host
// both medians sat at 0.1–1.1% on every workload; a goroutine spinning
// next to a one-lane probe on 2 CPUs shows as about 50%.
const foreignTolerance = 0.05

// idlePasses is the number of idle probe passes before the set-ups and
// after the timed run; the set-ups add a few more each.
const idlePasses = 20

// probeCheck fails when the median probe pass between steps saw more
// foreign CPU than the median idle pass, by more than foreignTolerance.
func probeCheck(stepping, idle []probeSample) error {
	if len(stepping) == 0 || len(idle) == 0 {
		return fmt.Errorf("no probe passes (%d between steps, %d idle)", len(stepping), len(idle))
	}
	s, i := median(probeForeign(stepping)), median(probeForeign(idle))
	if s-i > foreignTolerance {
		return fmt.Errorf("other goroutines used %.1f%% of the CPUs during the probe between steps, %.1f%% while idle (tolerance %.0f points)",
			s*100, i*100, foreignTolerance*100)
	}
	return nil
}
