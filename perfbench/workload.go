package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/perf"
)

// dtFactor is the drivers' time-step rule: 0.4 × the acoustic stable step
// (full StableDt drives the lifted jet into a negative-density panic).
const dtFactor = 0.4

// Grid of every workload: the cmd/s3d driver defaults.
const gridNx, gridNy, gridNz = 72, 54, 1

// workload is one closed-loop batch job: one simulation whose steps each
// start after the previous one finished.
type workload struct {
	name      string
	problem   string // "liftedjet" or "bunsen"
	ranks     int    // in-process ranks; 2 means a 2×1×1 decomposition
	workers   int    // kernel worker-pool size (s3d.SetWorkers)
	procs     int    // GOMAXPROCS
	ckptEvery int    // restart-file cadence in steps during the timed run (0: none)
	// tailSteps is the size of the sample the tail percentile is taken
	// over: the last tailSteps untraced steps, fewer than a run makes on
	// the 2-vCPU test host (serial 90–129, 2-rank 136–175, Bunsen 57–65
	// in 20 s). The steps a run makes follow the host's speed; a sample of
	// that size would move the tail's percentile with it, and every fifth
	// step (the filter's) is slower, so the value would jump.
	tailSteps int
}

var workloads = []workload{
	{name: "liftedjet-serial", problem: "liftedjet", ranks: 1, workers: 1, procs: 1, tailSteps: 80},
	{name: "liftedjet-2rank", problem: "liftedjet", ranks: 2, workers: 1, procs: 2, tailSteps: 120},
	{name: "bunsen-2worker", problem: "bunsen", ranks: 1, workers: 2, procs: 2, ckptEvery: 10, tailSteps: 50},
}

// lanes is the number of goroutines the workload keeps busy: the speed
// probe's lane count.
func (wl workload) lanes() int { return wl.ranks * wl.workers }

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// buildProblem builds one of the two science problems with the drivers'
// settings (cmd/s3d defaults: 72×54×1, ignition kernel, Bunsen case A at
// velocity scale 0.5, filter every 5 steps).
func buildProblem(kind string, seed int64) (*s3d.Problem, error) {
	switch kind {
	case "liftedjet":
		return s3d.LiftedJetProblem(s3d.LiftedJetOptions{
			Nx: gridNx, Ny: gridNy, Nz: gridNz, IgnitionKernel: true, Seed: seed,
		})
	case "bunsen":
		return s3d.BunsenProblem(s3d.BunsenOptions{
			Case: 'A', Nx: gridNx, Ny: gridNy, Nz: gridNz, VelocityScale: 0.5, Seed: seed,
		})
	}
	return nil, fmt.Errorf("unknown problem %q", kind)
}

func problemSpanName(kind string) string {
	if kind == "bunsen" {
		return "s3d.BunsenProblem"
	}
	return "s3d.LiftedJetProblem"
}

// rankSim is one rank's simulation inside runRanks.
type rankSim struct {
	sim    *s3d.Simulation
	rank   int
	offset [3]int
	built  time.Time // when this rank's simulation finished construction
	bar    *barrier  // shared by the run's ranks
}

// runRanks constructs the configuration on the given number of ranks (a
// serial s3d.New for one, s3d.RunDecomposed over 2×1×1 otherwise) and runs
// body on every rank. A panic in body — a step that blew up, or a rank that
// could not keep the collective pattern — comes back as an error in both
// cases, the decomposed one after every peer has unwound. A panicking rank
// breaks the ranks' barrier, so a peer waiting there unwinds too.
func runRanks(cfg s3d.Config, ranks int, body func(r rankSim)) (err error) {
	bar := newBarrier(ranks)
	guarded := func(r rankSim) {
		defer func() {
			if p := recover(); p != nil {
				bar.abort()
				panic(p)
			}
		}()
		r.bar = bar
		body(r)
	}
	if ranks == 1 {
		sim, nerr := s3d.New(cfg)
		if nerr != nil {
			return nerr
		}
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serial run panicked: %v", p)
			}
		}()
		guarded(rankSim{sim: sim, built: time.Now()})
		return nil
	}
	return s3d.RunDecomposed(cfg, [3]int{ranks, 1, 1}, func(r *s3d.RankSim) {
		guarded(rankSim{sim: r.Simulation, rank: r.Rank, offset: r.Offset, built: time.Now()})
	})
}

// barrier is a reusable rendezvous of the benchmark's own between the
// ranks of one run, outside the program's communicator. abort releases
// every waiter, now and later, with a panic.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	gen     int
	broken  bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic("perfbench: a peer rank failed")
	}
	b.here++
	if b.here == b.n {
		b.here = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen := b.gen; gen == b.gen && !b.broken; {
		b.cond.Wait()
	}
	if b.broken {
		panic("perfbench: a peer rank failed")
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// phase is the kind of a timed step.
type phase int

const (
	phUntraced phase = iota // plain Simulation.Advance
	phTraced                // through a telemetry Probe, with spans
	phStop
)

// schedule decides, once per step index and identically for every rank,
// which phase a step belongs to: phase i runs for lengths[i] (counted from
// the first step of the run) and for at least minSteps steps. Ranks step
// in lockstep (every step ends in a halo exchange), so the first rank to
// reach a step index decides for all.
type schedule struct {
	mu       sync.Mutex
	kinds    []phase
	lengths  []time.Duration
	minSteps int
	ends     []time.Time // set at the run's first step
	cur      int         // index into kinds
	inPhase  int
	decided  []phase
}

// restart rewinds the schedule for a new attempt; deadlines stay.
func (s *schedule) restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur, s.inPhase, s.decided = 0, 0, nil
}

// expired reports whether the last phase's deadline has passed.
func (s *schedule) expired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ends != nil && !time.Now().Before(s.ends[len(s.ends)-1])
}

func (s *schedule) at(step int) phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ends == nil {
		t := time.Now()
		for _, l := range s.lengths {
			t = t.Add(l)
			s.ends = append(s.ends, t)
		}
	}
	for len(s.decided) <= step {
		now := time.Now()
		for s.cur < len(s.kinds) && s.inPhase >= s.minSteps && !now.Before(s.ends[s.cur]) {
			s.cur++
			s.inPhase = 0
		}
		ph := phStop
		if s.cur < len(s.kinds) {
			ph = s.kinds[s.cur]
			s.inPhase++
		}
		s.decided = append(s.decided, ph)
	}
	return s.decided[step]
}

// rankLog is what one rank records during one timed attempt. Each rank
// writes only its own log; run reads them after runRanks returns.
type rankLog struct {
	offset    [3]int // global offset of this rank's block
	setupDone time.Time

	walls      [2][]float64     // step walls per phase (untraced, traced)
	probes     [2][]probeSample // speed probe after each step (rank 0 only)
	loopWrites int              // restart-file writes made by the stepping loop
	completed  bool             // the stepping loop ran to its deadline

	final      snapshot // local state after the stepping loop
	invariants error
	restart    error
	drift      float64 // how far reading the checkpoint back moved T

	ckptBytes int64
	ckptWrite []float64 // seconds per restart-file write

	// Ledgers bracketing the traced phase.
	timers0, timers1 *perf.Timers
	pool0, pool1     *perf.Timers
	commFirst        obs.CommStats
	commLast         obs.CommStats
	commSteps        int // steps between commFirst and commLast
	layout           layout
}

// attempt is one simulation of the timed run: set-up, stepping until the
// schedule stops it (or a step fails), then the restart and invariant
// checks on its final state.
type attempt struct {
	setupSec float64 // problem build until every rank has its dt
	logs     []*rankLog
	err      error
}

// stepper holds what every rank of a run shares.
type stepper struct {
	wl    workload
	opt   options
	tr    *tracer
	names []string
}

// run performs one set-up and, when sched is non-nil, steps the
// simulation under it and checks the final state.
func (st *stepper) run(sched *schedule) attempt {
	// Collect the previous simulation and return its pages to the OS
	// first. Otherwise whether the new blocks land in its not yet released
	// pages or in fresh ones decides the peak resident set, up to a whole
	// simulation apart (115–182 MiB on liftedjet-serial, measured).
	debug.FreeOSMemory()
	rootID := st.tr.newID()
	t0 := time.Now()
	p, err := buildProblem(st.wl.problem, st.opt.seed)
	tProb := time.Now()
	st.tr.add(st.tr.newID(), rootID, -1, problemSpanName(st.wl.problem), t0, tProb)
	at := attempt{logs: make([]*rankLog, st.wl.ranks)}
	if err != nil {
		at.err = err
		return at
	}
	if st.opt.tweak != nil {
		st.opt.tweak(p)
	}
	for i := range at.logs {
		at.logs[i] = &rankLog{}
	}
	constructName := "s3d.New"
	if st.wl.ranks > 1 {
		constructName = "s3d.RunDecomposed"
	}
	at.err = runRanks(p.Config, st.wl.ranks, func(r rankSim) {
		lg := at.logs[r.rank]
		lg.offset = r.offset
		st.tr.add(st.tr.newID(), rootID, r.rank, constructName, tProb, r.built)
		r.sim.SetInitial(p.Initial, p.InitPressure)
		tInit := time.Now()
		st.tr.add(st.tr.newID(), rootID, r.rank, "s3d.SetInitial", r.built, tInit)
		dt := dtFactor * r.sim.StableDtGlobal()
		lg.setupDone = time.Now()
		st.tr.add(st.tr.newID(), rootID, r.rank, "s3d.StableDtGlobal", tInit, lg.setupDone)
		if sched != nil {
			st.solve(r, lg, dt, sched)
		}
	})
	var done time.Time
	for _, lg := range at.logs {
		if lg.setupDone.After(done) {
			done = lg.setupDone
		}
	}
	at.setupSec = done.Sub(t0).Seconds()
	st.tr.add(rootID, 0, -1, "setup", t0, done)
	return at
}

// ckptPath is the rank's restart file for this run.
func (st *stepper) ckptPath(rank int) string {
	return filepath.Join(st.opt.out, fmt.Sprintf("%s-seed%d-rank%d.ckpt", st.wl.name, st.opt.seed, rank))
}

// solve is the timed stepping loop of one rank, followed by the checks on
// its final state.
func (st *stepper) solve(r rankSim, lg *rankLog, dt float64, sched *schedule) {
	sim := r.sim
	var probe *s3d.Probe
	var speed *speedProbe
	if r.rank == 0 {
		speed = newSpeedProbe(st.wl.lanes())
	}
	solveID := st.tr.newID()
	solveStart := time.Now()
	for k := 0; ; k++ {
		ph := sched.at(k)
		if ph == phStop {
			break
		}
		if ph == phTraced && probe == nil {
			probe = st.beginTraced(r, lg)
		}
		// Every rank starts the step together, and rank 0 times the probe
		// once every rank has left the step, while its peers wait for the
		// next step; so the probe overlaps no rank's timed step.
		r.bar.wait()
		t0 := time.Now()
		if probe != nil {
			probe.Advance(1, dt)
		} else {
			sim.Advance(1, dt)
		}
		t1 := time.Now()
		r.bar.wait()
		lg.walls[ph] = append(lg.walls[ph], t1.Sub(t0).Seconds())
		if speed != nil {
			lg.probes[ph] = append(lg.probes[ph], speed.run())
		}
		if probe != nil {
			st.tr.add(st.tr.newID(), solveID, r.rank, "s3d.Advance", t0, t1)
			if len(lg.walls[phTraced]) == 1 {
				lg.commFirst = probe.LastStep().Comm
			} else {
				lg.commLast = probe.LastStep().Comm
				lg.commSteps++
			}
		}
		if st.wl.ckptEvery > 0 && (k+1)%st.wl.ckptEvery == 0 {
			if err := st.save(r, lg, solveID)(sim); err != nil {
				panic(err)
			}
			lg.loopWrites++
		}
	}
	lg.completed = true
	st.tr.add(solveID, 0, r.rank, "solve", solveStart, time.Now())

	if probe != nil {
		lg.timers1 = sim.PerfTimers().Snapshot()
		if r.rank == 0 {
			lg.pool1 = sim.PoolPerfTimers()
		}
	}
	final, err := takeSnapshot(sim, st.names)
	if err != nil {
		panic(err)
	}
	lg.final = final
	lg.invariants = checkInvariants(final)
	tc := time.Now()
	lg.drift, lg.restart = restartCheck(sim, dt, st.names, st.save(r, lg, 0), st.load(r))
	st.tr.add(st.tr.newID(), 0, r.rank, "check.restart", tc, time.Now())
}

// beginTraced opens the traced phase on one rank: a telemetry probe for the
// comm ledger and snapshots of the region and pool ledgers.
func (st *stepper) beginTraced(r rankSim, lg *rankLog) *s3d.Probe {
	probe, err := r.sim.StartTelemetry(s3d.TelemetryOptions{Case: st.wl.name})
	if err != nil {
		panic(err)
	}
	lg.timers0 = r.sim.PerfTimers().Snapshot()
	if r.rank == 0 {
		lg.pool0 = r.sim.PoolPerfTimers()
	}
	lg.layout = layoutOf(r.sim)
	return probe
}

// save returns the rank's checkpoint writer: SaveCheckpoint to its restart
// file, timed and traced as the sdf write path.
func (st *stepper) save(r rankSim, lg *rankLog, parent int) func(*s3d.Simulation) error {
	return func(sim *s3d.Simulation) error {
		t0 := time.Now()
		f, err := os.Create(st.ckptPath(r.rank))
		if err != nil {
			return err
		}
		if err := sim.SaveCheckpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t1 := time.Now()
		lg.ckptWrite = append(lg.ckptWrite, t1.Sub(t0).Seconds())
		st.tr.add(st.tr.newID(), parent, r.rank, "sdf.write", t0, t1)
		if fi, err := os.Stat(st.ckptPath(r.rank)); err == nil {
			lg.ckptBytes = fi.Size()
		}
		return nil
	}
}

// load returns the rank's checkpoint reader. A rank that cannot read its
// file panics: returning would skip the collective steps that follow.
func (st *stepper) load(r rankSim) func(*s3d.Simulation) error {
	return func(sim *s3d.Simulation) error {
		t0 := time.Now()
		f, err := os.Open(st.ckptPath(r.rank))
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := sim.LoadCheckpoint(f); err != nil {
			panic(err)
		}
		st.tr.add(st.tr.newID(), 0, r.rank, "sdf.read", t0, time.Now())
		return nil
	}
}
