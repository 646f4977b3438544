package main

// Per-layer figures for the traced run. The solver's own ledgers (region
// timers, pool timers, comm counters) are read through the public API;
// the per-point kernels of chem, transport, thermo and deriv, the pool's
// dispatch and the comm layer's halo exchange are replayed here in
// isolation on the traced run's final state.

import (
	"time"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/transport"
)

// solverRegions are the solver's timer regions on these workloads, in the
// order of a step. DIVERGENCE has no row: it is charged inside DERIVATIVES
// and shows only in the pool ledger (poolLabels).
var solverRegions = []string{
	"COMPUTE_PRIMITIVES", "GHOST_EXCHANGE", "MPI_WAIT", "COMPUTE_TRANSPORT",
	"DERIVATIVES", "COMPUTESPECIESDIFFFLUX", "ASSEMBLE_FLUXES",
	"REACTION_RATE_BOUNDS", "NSCBC", "RK_UPDATE", "FILTER",
}

// poolLabels are the kernel labels of the worker-pool ledger.
var poolLabels = []string{
	"COMPUTE_PRIMITIVES", "COMPUTE_TRANSPORT", "DERIVATIVES", "DIVERGENCE",
	"COMPUTESPECIESDIFFFLUX", "ASSEMBLE_FLUXES", "REACTION_RATE_BOUNDS",
	"NSCBC", "RK_UPDATE", "FILTER", "GHOST_EXCHANGE",
}

// layout is one rank's block geometry and field storage.
type layout struct {
	dims          [3]int  // interior extents
	arenaBytes    float64 // Σ field width × cells including ghosts
	conservedVars int     // fields in the conserved halo group
}

func layoutOf(sim *s3d.Simulation) layout {
	nx, ny, nz := sim.Dims()
	g := grid.Ghost
	cells := float64((nx + 2*g) * (ny + 2*g) * (nz + 2*g))
	l := layout{dims: [3]int{nx, ny, nz}}
	for _, f := range sim.Fields() {
		l.arenaBytes += float64(f.Width) * cells
		if f.HaloGroup == "conserved" {
			l.conservedVars++
		}
	}
	return l
}

// ledgerDelta returns, per region, the exclusive seconds b accumulated
// beyond a (a may be nil), and the calls likewise.
func ledgerDelta(a, b *perf.Timers) (sec map[string]float64, calls map[string]int64) {
	sec, calls = map[string]float64{}, map[string]int64{}
	if b == nil {
		return sec, calls
	}
	for _, r := range b.Regions() {
		s, c := r.Exclusive.Seconds(), r.Calls
		if a != nil {
			if ra := a.Region(r.Name); ra != nil {
				s -= ra.Exclusive.Seconds()
				c -= ra.Calls
			}
		}
		sec[r.Name] += s
		calls[r.Name] += c
	}
	return sec, calls
}

// medianPass runs fn repeatedly — at least 5 times and for at least
// 150 ms — and returns the median duration of one pass in seconds.
func medianPass(fn func()) float64 {
	var passes []float64
	start := time.Now()
	for len(passes) < 5 || time.Since(start) < 150*time.Millisecond {
		t0 := time.Now()
		fn()
		passes = append(passes, time.Since(t0).Seconds())
	}
	return median(passes)
}

// pointState is the per-point thermochemical state of a snapshot.
type pointState struct {
	rho, T, p []float64
	Y         [][]float64 // [point][species]
}

func pointsOf(s snapshot, species []string) pointState {
	n := len(s.fields["T"])
	ps := pointState{rho: s.fields["rho"], T: s.fields["T"], p: s.fields["p"], Y: make([][]float64, n)}
	for i := range ps.Y {
		ps.Y[i] = make([]float64, len(species))
		for k, sp := range species {
			ps.Y[i][k] = s.fields["Y_"+sp][i]
		}
	}
	return ps
}

func mechanismOf(kind string) *chem.Mechanism {
	if kind == "bunsen" {
		return chem.CH4Skeletal()
	}
	return chem.H2Air()
}

// kernelReplays times the per-point kernels on the state s and returns
// µs per grid point for each.
func kernelReplays(kind string, s snapshot, species []string) map[string]float64 {
	m := mechanismOf(kind)
	tm := transport.MustNew(m.Set)
	ps := pointsOf(s, species)
	n := len(ps.T)
	ns := len(species)
	us := func(sec float64, units int) float64 { return sec / float64(units) * 1e6 }
	out := map[string]float64{}

	C, wdot := make([]float64, ns), make([]float64, ns)
	out["chem.rates_us_per_gp"] = us(medianPass(func() {
		for i := 0; i < n; i++ {
			m.Concentrations(ps.rho[i], ps.Y[i], C)
			m.ProductionRates(ps.T[i], C, wdot)
		}
	}), n)

	props := transport.Props{Dmix: make([]float64, ns)}
	out["transport.mixture_us_per_gp"] = us(medianPass(func() {
		for i := 0; i < n; i++ {
			tm.Mixture(ps.T[i], ps.p[i], ps.Y[i], &props)
		}
	}), n)

	// The solver inverts e(T) warm-started from the previous temperature;
	// the replay starts from the current one.
	e := make([]float64, n)
	for i := range e {
		e[i] = m.Set.EMass(ps.T[i], ps.Y[i])
	}
	out["thermo.tfrome_us_per_gp"] = us(medianPass(func() {
		for i := 0; i < n; i++ {
			m.Set.TFromE(e[i], ps.Y[i], ps.T[i])
		}
	}), n)

	fields := []string{"rho", "u", "v", "T"}
	src := make([]*grid.Field3, len(fields))
	nx, ny, nz := s.dims[0], s.dims[1], s.dims[2]
	for f, name := range fields {
		src[f] = grid.Scratch("replay_"+name, nx, ny, nz, grid.Ghost)
		data := s.fields[name]
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					src[f].Set(i, j, k, data[(k*ny+j)*nx+i])
				}
			}
		}
	}
	dst := grid.Scratch("replay_dst", nx, ny, nz, grid.Ghost)
	// Unit metrics: the metric values do not change the operation count.
	var axes []grid.Axis
	mets := map[grid.Axis][]float64{}
	for a, ext := range s.dims {
		if ext > 1 {
			axes = append(axes, grid.Axis(a))
			mets[grid.Axis(a)] = ones(ext)
		}
	}
	sweeps := len(fields) * len(axes) * n
	out["deriv.diff_us_per_gp"] = us(medianPass(func() {
		for _, f := range src {
			for _, a := range axes {
				deriv.Diff(dst, f, a, mets[a], deriv.OneSided, deriv.OneSided)
			}
		}
	}), sweeps)
	out["deriv.filter_us_per_gp"] = us(medianPass(func() {
		for _, f := range src {
			for _, a := range axes {
				deriv.Filter(dst, f, a, 1, deriv.OneSided, deriv.OneSided)
			}
		}
	}), sweeps)
	return out
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// dispatchReplay times a no-op Plan.Run over the box on the process pool:
// the pool's per-run dispatch and barrier cost, in µs per run.
func dispatchReplay(dims [3]int) float64 {
	plan := par.NewPlan(nil)
	box := par.Interior(dims[0], dims[1], dims[2])
	noop := func(par.Tile, int) {}
	const runs = 200
	return medianPass(func() {
		for i := 0; i < runs; i++ {
			plan.Run("NOOP", box, noop)
		}
	}) / runs * 1e6
}

// haloReplay times halo-sized point-to-point exchanges between two
// in-process ranks: each round both ranks post an Irecv and an Isend of n
// values and wait. It returns µs per message.
func haloReplay(n int) float64 {
	const rounds = 200
	var sec []float64
	w := comm.NewWorld(2)
	_ = w.Run(func(c *comm.Comm) {
		peer := 1 - c.Rank()
		out, in := make([]float64, n), make([]float64, n)
		for rep := 0; rep < 5; rep++ {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				comm.WaitAll(c.Irecv(peer, 7, in), c.Isend(peer, 7, out))
			}
			if c.Rank() == 0 {
				sec = append(sec, time.Since(t0).Seconds())
			}
		}
	})
	return median(sec) / rounds * 1e6
}

// perLayer assembles the traced run's per-layer metrics from the spans,
// the ledgers bracketing the traced phase of the final attempt, and the
// replays on its final state. Layers idle on a workload (comm on one rank,
// the pool at one worker) report 0.
func (st *stepper) perLayer(final *attempt, walls [2][]float64, species []string) map[string]float64 {
	out := map[string]float64{}
	gp := float64(gridNx * gridNy * gridNz)
	perGP := func(sec float64) float64 { return sec / gp * 1e6 }
	medianOr0 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	tr := st.tr
	out["s3d.advance_ms"] = medianOr0(tr.durations("s3d.Advance", 0)) * 1e3
	out["s3d.stable_dt_ms"] = medianOr0(tr.durations("s3d.StableDtGlobal", 0)) * 1e3
	out["s3d.problem_s"] = medianOr0(tr.durations(problemSpanName(st.wl.problem), -1))
	construct := "s3d.New"
	if st.wl.ranks > 1 {
		construct = "s3d.RunDecomposed"
	}
	out["s3d.new_s"] = medianOr0(tr.durations(construct, 0))
	out["s3d.init_s"] = medianOr0(tr.durations("s3d.SetInitial", 0))
	out["trace.us_per_gp_step"] = perGP(medianOr0(walls[phTraced]))
	out["trace.overhead_us_per_gp_step"] = out["trace.us_per_gp_step"] - perGP(medianOr0(walls[phUntraced]))
	out["sdf.write_ms"] = medianOr0(tr.durations("sdf.write", 0)) * 1e3
	out["sdf.read_ms"] = medianOr0(tr.durations("sdf.read", 0)) * 1e3

	for _, r := range solverRegions {
		out["solver."+r+"_share"] = 0
	}
	for _, l := range poolLabels {
		out["par."+l+"_busy_share"] = 0
	}
	for _, k := range []string{"comm.msgs_per_step", "comm.bytes_per_step", "comm.allreduces_per_step", "comm.wait_share", "comm.halo_us_per_msg"} {
		out[k] = 0
	}
	if final == nil {
		return out
	}

	// Region ledger: Σ ranks' exclusive region time over Σ ranks' traced
	// step wall. The pool ledger is process-wide (read on rank 0).
	regions := map[string]float64{}
	stepWall, regionWall := 0.0, 0.0
	var msgs, bytes, allreduces, waitSec float64
	commSteps := 0
	var sdfBytes int64
	var arena float64
	global := newSnapshot([3]int{gridNx, gridNy, gridNz}, st.names)
	for r, lg := range final.logs {
		sec, _ := ledgerDelta(lg.timers0, lg.timers1)
		for name, s := range sec {
			regions[name] += s
			regionWall += s
		}
		for _, w := range lg.walls[phTraced] {
			stepWall += w
		}
		d := lg.commLast
		f := lg.commFirst
		msgs += float64(d.MsgsSent - f.MsgsSent)
		bytes += float64(d.BytesSent - f.BytesSent)
		allreduces += float64(d.Allreduces - f.Allreduces)
		waitSec += (d.WaitSec + d.CollSec) - (f.WaitSec + f.CollSec)
		if r == 0 {
			commSteps = lg.commSteps
		}
		sdfBytes += lg.ckptBytes
		arena += lg.layout.arenaBytes
		global.place(lg.final, lg.offset)
	}
	sh, unattributed := shares(regions, stepWall)
	for name, v := range sh {
		out["solver."+name+"_share"] = v
	}
	out["solver.unattributed_share"] = unattributed

	lg0 := final.logs[0]
	poolSec, poolCalls := ledgerDelta(lg0.pool0, lg0.pool1)
	busy, runs := 0.0, int64(0)
	for _, s := range poolSec {
		busy += s
	}
	for _, c := range poolCalls {
		runs += c
	}
	for name, s := range poolSec {
		if busy > 0 {
			out["par."+name+"_busy_share"] = s / busy
		}
	}
	if n := len(lg0.walls[phTraced]); n > 0 {
		out["par.runs_per_step"] = float64(runs) / float64(n)
	}
	out["par.busy_share"] = busyShare(busy, st.wl.workers, regionWall)
	out["par.dispatch_us_per_run"] = dispatchReplay(lg0.layout.dims)

	if st.wl.ranks > 1 && commSteps > 0 {
		out["comm.msgs_per_step"] = msgs / float64(commSteps)
		out["comm.bytes_per_step"] = bytes / float64(commSteps)
		out["comm.allreduces_per_step"] = allreduces / float64(commSteps)
		out["comm.wait_share"] = waitSec / stepWall
		l := lg0.layout
		out["comm.halo_us_per_msg"] = haloReplay(grid.Ghost * l.dims[1] * l.dims[2] * l.conservedVars)
	}
	out["sdf.bytes"] = float64(sdfBytes)
	out["grid.arena_MB"] = arena / (1 << 20)

	for k, v := range kernelReplays(st.wl.problem, global, species) {
		out[k] = v
	}
	return out
}
