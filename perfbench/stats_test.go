package main

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestTailRule(t *testing.T) {
	// 1..100 shuffled: the highest percentile with ten samples beyond it
	// is p90, value 90.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	got := tail(xs, 10)
	if !got.Defined || got.Percentile != 90 || got.Value != 90 || got.Samples != 100 {
		t.Fatalf("tail(1..100) = %+v, want p90 = 90 over 100", got)
	}
	// 40 samples: p75 is the highest with ten beyond (indices 30..39).
	got = tail(xs[:40], 10)
	s := sorted(xs[:40])
	if got.Percentile != 75 || got.Value != s[29] {
		t.Fatalf("tail(40) = %+v, want p75 = %v", got, s[29])
	}
	// Exactly eleven samples: only the minimum has ten beyond it.
	got = tail([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}, 10)
	if !got.Defined || got.Value != 1 {
		t.Fatalf("tail(11) = %+v, want value 1", got)
	}
	// Ten or fewer: undefined, reported as the maximum.
	got = tail([]float64{1, 5, 2}, 10)
	if got.Defined || got.Value != 5 || got.Samples != 3 {
		t.Fatalf("tail(3) = %+v, want undefined max 5", got)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("empty tally should report 0")
	}
	for i := 0; i < 47; i++ {
		tl.add(true)
	}
	tl.add(false)
	tl.add(false)
	tl.add(true)
	if tl.Attempted != 50 || tl.Failed != 2 || tl.failedFrac() != 0.04 {
		t.Fatalf("tally = %+v frac %v, want 2/50", tl, tl.failedFrac())
	}
}

func TestShares(t *testing.T) {
	sh, un := shares(map[string]float64{"A": 3, "B": 1}, 5)
	if sh["A"] != 0.6 || sh["B"] != 0.2 || math.Abs(un-0.2) > 1e-15 {
		t.Fatalf("shares = %v unattributed %v, want A 0.6 B 0.2 rest 0.2", sh, un)
	}
	// A ledger that over-covers the wall shows as negative unattributed
	// time instead of being clipped.
	if _, un := shares(map[string]float64{"A": 6}, 5); math.Abs(un+0.2) > 1e-15 {
		t.Fatalf("over-covered unattributed = %v, want -0.2", un)
	}
	if sh, un := shares(map[string]float64{"A": 1}, 0); len(sh) != 0 || un != 0 {
		t.Fatalf("zero wall: %v %v", sh, un)
	}
	if got := busyShare(3, 2, 2); got != 0.75 {
		t.Fatalf("busyShare(3 s, 2 workers, 2 s) = %v, want 0.75", got)
	}
	if busyShare(1, 0, 2) != 0 || busyShare(1, 2, 0) != 0 {
		t.Fatal("busyShare with no workers or no wall should be 0")
	}
}

func TestStepWallsTakesSlowestRank(t *testing.T) {
	a := &rankLog{}
	b := &rankLog{}
	a.walls[phUntraced] = []float64{1, 5, 2, 9}
	b.walls[phUntraced] = []float64{3, 4, 2}
	pick := func(lg *rankLog) []float64 { return lg.walls[phUntraced] }
	got := stepWalls([]*rankLog{a, b}, pick)
	want := []float64{3, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("stepWalls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stepWalls = %v, want %v", got, want)
		}
	}
	if stepWalls([]*rankLog{a, nil}, pick) != nil {
		t.Fatal("a rank that never started should yield no steps")
	}
}

func TestScheduleAgreesAcrossRanks(t *testing.T) {
	s := &schedule{
		kinds:    []phase{phUntraced, phTraced},
		lengths:  []time.Duration{0, 0},
		minSteps: 3,
	}
	if s.expired() {
		t.Fatal("deadlines start at the first step, not at construction")
	}
	var got []phase
	for k := 0; k < 8; k++ {
		got = append(got, s.at(k))
		if again := s.at(k); again != got[k] {
			t.Fatalf("step %d decided twice: %v then %v", k, got[k], again)
		}
	}
	if !s.expired() {
		t.Fatal("zero-length phases should have expired")
	}
	want := []phase{phUntraced, phUntraced, phUntraced, phTraced, phTraced, phTraced, phStop, phStop}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("phases = %v, want %v", got, want)
		}
	}
}

func TestNormalise(t *testing.T) {
	// A host running at half speed for steps 3..7 doubles both the step
	// walls and the probe walls there; normalising recovers the steady
	// wall except where the window straddles the change.
	var walls, probes []float64
	for i := 0; i < 11; i++ {
		f := 1.0
		if i >= 3 && i <= 7 {
			f = 2
		}
		walls = append(walls, 0.1*f)
		probes = append(probes, probeRef*f)
	}
	got := normalise(walls, probes)
	for i, g := range got {
		if i == 2 || i == 8 {
			continue // window half in, half out
		}
		if math.Abs(g-0.1) > 1e-15 {
			t.Errorf("step %d: normalised %v, want 0.1", i, g)
		}
	}
	if len(normalise(nil, nil)) != 0 {
		t.Error("no steps should give no walls")
	}
}

func TestBarrier(t *testing.T) {
	// Two ranks pass the barrier round after round; neither gets a round
	// ahead of the other.
	b := newBarrier(2)
	var round [2]int
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				b.wait()
				round[r] = i
				b.wait()
				if round[1-r] != i {
					t.Errorf("rank %d in round %d saw its peer in round %d", r, i, round[1-r])
					return
				}
			}
		}()
	}
	<-done
	<-done

	// A rank that fails releases its waiting peer with a panic, and
	// later waits panic at once.
	b = newBarrier(2)
	released := make(chan any)
	go func() {
		defer func() { released <- recover() }()
		b.wait()
	}()
	time.Sleep(10 * time.Millisecond)
	b.abort()
	if p := <-released; p == nil {
		t.Fatal("waiter not released by abort")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wait on a broken barrier returned")
			}
		}()
		b.wait()
	}()
}

func TestProbeCheck(t *testing.T) {
	passes := func(foreign ...float64) []probeSample {
		var out []probeSample
		for _, f := range foreign {
			out = append(out, probeSample{Wall: probeRef, Foreign: f})
		}
		return out
	}
	idle := passes(0.001, 0, 0.002)
	if err := probeCheck(passes(0.01, 0.02, 0.2), idle); err != nil {
		t.Errorf("a little foreign CPU (and one GC pass) rejected: %v", err)
	}
	if err := probeCheck(passes(0.4, 0.5, 0.45), idle); err == nil {
		t.Error("a busy goroutine between steps accepted")
	}
	if probeCheck(nil, idle) == nil || probeCheck(idle, nil) == nil {
		t.Error("a missing probe sample accepted")
	}
}

// The probe measures CPU that other goroutines burn while it runs: a
// goroutine spinning next to it fails the probe check.
func TestProbeSeesSpinningGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs")
	}
	p := newSpeedProbe(1)
	idle := p.passes(10)
	stop := make(chan struct{})
	spinning := make(chan struct{})
	go func() {
		close(spinning)
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-spinning
	busy := p.passes(10)
	close(stop)
	if err := probeCheck(p.passes(10), idle); err != nil {
		t.Errorf("quiet process rejected: %v", err)
	}
	err := probeCheck(busy, idle)
	if err == nil {
		t.Errorf("spinning goroutine not seen: foreign %v", probeForeign(busy))
	}
	t.Log(err)
}

func TestSpecUnits(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sel, missing, unlisted := selectMetrics(sp.EndToEnd, map[string]float64{
		"us_per_gp_step": 50, "setup_s": 1, "not_listed": 3,
	})
	if sel["us_per_gp_step"] != (metric{Value: 50, Unit: "us"}) || sel["setup_s"] != (metric{Value: 1, Unit: "s"}) {
		t.Errorf("selected %v", sel)
	}
	if len(sel)+len(missing) != len(sp.EndToEnd) || slices.Contains(missing, "setup_s") {
		t.Errorf("missing %v of %d listed", missing, len(sp.EndToEnd))
	}
	if !slices.Equal(unlisted, []string{"not_listed"}) {
		t.Errorf("unlisted %v", unlisted)
	}
}
