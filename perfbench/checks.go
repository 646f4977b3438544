package main

// Output checks. A field-wise comparison after a long run cannot tell a
// defect from round-off (decomposed-vs-serial temperature differs by ~1e-16
// after 5 steps but ~1e-4 after 100), so correctness is checked three ways:
//
//   - field-wise at a short horizon (horizonSteps) at a tight relative
//     tolerance: the 2-rank run against the serial run, and a restart from
//     a checkpoint restoring the state and continuing bit-exactly
//     (restartCheck);
//   - invariants on the long timed run: every value finite, ρ > 0, p > 0
//     and T strictly inside the thermodynamic fit range;
//   - a committed short-horizon reference (reference.json) for the default
//     seed, which catches a defect that breaks every path the same way.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/thermo"
)

const (
	// horizonSteps is the short horizon of the field-wise and reference
	// checks; five steps include one filter application (FilterEvery 5).
	horizonSteps = 5
	// crossPathTol bounds max|a−b| ÷ max|a| per field between two
	// execution paths at the short horizon. Legitimate reorderings differ
	// by ~1e-15 there; a planted one-cell defect by ≥1e-4.
	crossPathTol = 1e-10
	// referenceTol bounds each summary statistic against the committed
	// reference, relative to the field's reference magnitude.
	referenceTol = 1e-9
	// restartSteps is how far a restart continues before it is compared
	// bit-for-bit with a second restart from the same file.
	restartSteps = 2
	// restartDriftTol bounds how far reading a checkpoint back may move T
	// and p, relative to their largest magnitude. The read-back applies one
	// more Newton update to the converged temperature, which moves it by an
	// ulp or so (~3e-16 measured); a wrongly restored energy by far more.
	restartDriftTol = 1e-13
	// defaultSeed is the seed the committed reference was generated with.
	defaultSeed = 1
)

// snapshot holds named interior fields of one simulation, or of a whole
// decomposed run assembled in global x-fastest order.
type snapshot struct {
	dims   [3]int
	names  []string
	fields map[string][]float64
}

// stateFields lists the primitive state a check compares.
func stateFields(species []string) []string {
	names := []string{"rho", "u", "v", "w", "T", "p"}
	for _, sp := range species {
		names = append(names, "Y_"+sp)
	}
	return names
}

func newSnapshot(dims [3]int, names []string) snapshot {
	s := snapshot{dims: dims, names: names, fields: map[string][]float64{}}
	for _, n := range names {
		s.fields[n] = make([]float64, dims[0]*dims[1]*dims[2])
	}
	return s
}

// takeSnapshot copies the named interior fields out of sim.
func takeSnapshot(sim *s3d.Simulation, names []string) (snapshot, error) {
	nx, ny, nz := sim.Dims()
	s := snapshot{dims: [3]int{nx, ny, nz}, names: names, fields: map[string][]float64{}}
	for _, n := range names {
		data, _, err := sim.Field(n)
		if err != nil {
			return s, err
		}
		s.fields[n] = data
	}
	return s, nil
}

// place copies a rank-local snapshot into the global one at offset off.
// Ranks own disjoint boxes, so concurrent calls for different ranks write
// disjoint elements.
func (g snapshot) place(local snapshot, off [3]int) {
	lx, ly, lz := local.dims[0], local.dims[1], local.dims[2]
	gx, gy := g.dims[0], g.dims[1]
	for _, n := range g.names {
		src, dst := local.fields[n], g.fields[n]
		for k := 0; k < lz; k++ {
			for j := 0; j < ly; j++ {
				s := (k*ly + j) * lx
				d := ((k+off[2])*gy+(j+off[1]))*gx + off[0]
				copy(dst[d:d+lx], src[s:s+lx])
			}
		}
	}
}

// maxRelDiff returns the field of b that differs most from a, and by how
// much relative to a's largest magnitude. A NaN difference always wins.
func maxRelDiff(a, b snapshot) (worst string, worstRel float64, err error) {
	if a.dims != b.dims {
		return "", 0, fmt.Errorf("dims differ: %v vs %v", a.dims, b.dims)
	}
	for _, n := range a.names {
		fa, fb := a.fields[n], b.fields[n]
		if len(fb) != len(fa) {
			return "", 0, fmt.Errorf("field %s missing or resized", n)
		}
		scale, diff := 0.0, 0.0
		for i := range fa {
			scale = math.Max(scale, math.Abs(fa[i]))
			d := math.Abs(fa[i] - fb[i])
			if !(d <= diff) { // NaN-safe: a NaN difference always wins
				diff = d
			}
		}
		rel := diff
		if scale > 0 {
			rel = diff / scale
		}
		if !(rel <= worstRel) {
			worst, worstRel = n, rel
		}
	}
	return worst, worstRel, nil
}

// compareFields checks that every field of b matches a within tol relative
// to a's largest magnitude, and names the worst field when it does not.
func compareFields(a, b snapshot, tol float64) error {
	worst, worstRel, err := maxRelDiff(a, b)
	if err != nil {
		return err
	}
	if !(worstRel <= tol) {
		return fmt.Errorf("field %s differs by %.3g relative (tolerance %.0e)", worst, worstRel, tol)
	}
	return nil
}

// bitwiseEqual checks that two snapshots hold identical bits.
func bitwiseEqual(a, b snapshot) error {
	if a.dims != b.dims {
		return fmt.Errorf("dims differ: %v vs %v", a.dims, b.dims)
	}
	for _, n := range a.names {
		fa, fb := a.fields[n], b.fields[n]
		if len(fb) != len(fa) {
			return fmt.Errorf("field %s missing or resized", n)
		}
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				return fmt.Errorf("field %s differs at cell %d: %v vs %v", n, i, fa[i], fb[i])
			}
		}
	}
	return nil
}

// checkInvariants checks the long-horizon physical invariants: every value
// finite, density and pressure positive, temperature strictly inside the
// thermodynamic fit range (the temperature inversion saturates at its
// ends, so a value on the bound means the state left the physical range).
func checkInvariants(s snapshot) error {
	for _, n := range s.names {
		for i, v := range s.fields[n] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("field %s is %v at cell %d", n, v, i)
			}
		}
	}
	for _, n := range []string{"rho", "p"} {
		for i, v := range s.fields[n] {
			if v <= 0 {
				return fmt.Errorf("%s = %v <= 0 at cell %d", n, v, i)
			}
		}
	}
	for i, v := range s.fields["T"] {
		if v <= thermo.TMin || v >= thermo.TMax {
			return fmt.Errorf("T = %v K outside (%v, %v) at cell %d", v, thermo.TMin, thermo.TMax, i)
		}
	}
	return nil
}

// fieldStats summarises one field for the committed reference. Weighted
// is a fixed pseudo-random weighting of every cell, so a change confined
// to a single cell still moves it.
type fieldStats struct {
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	Weighted float64 `json:"weighted"`
}

// problemReference is the committed short-horizon state of one problem.
type problemReference struct {
	Dt     float64               `json:"dt"`
	Fields map[string]fieldStats `json:"fields"`
}

// referenceFile is the schema of reference.json.
type referenceFile struct {
	Seed         int64                       `json:"seed"`
	HorizonSteps int                         `json:"horizon_steps"`
	Grid         [3]int                      `json:"grid"`
	Problems     map[string]problemReference `json:"problems"`
}

func summarize(s snapshot, dt float64) problemReference {
	ref := problemReference{Dt: dt, Fields: map[string]fieldStats{}}
	for _, n := range s.names {
		f := s.fields[n]
		st := fieldStats{Min: math.Inf(1), Max: math.Inf(-1)}
		sum, wsum := 0.0, 0.0
		for i, v := range f {
			st.Min = math.Min(st.Min, v)
			st.Max = math.Max(st.Max, v)
			sum += v
			wsum += (1 + 0.5*math.Sin(0.7*float64(i))) * v
		}
		st.Mean = sum / float64(len(f))
		st.Weighted = wsum / float64(len(f))
		ref.Fields[n] = st
	}
	return ref
}

// compareReference checks got against the committed reference: dt and
// every statistic within referenceTol of the reference, relative to the
// field's largest reference magnitude.
func compareReference(got, ref problemReference) error {
	if !within(got.Dt, ref.Dt, math.Abs(ref.Dt)) {
		return fmt.Errorf("dt %v, reference %v", got.Dt, ref.Dt)
	}
	names := make([]string, 0, len(ref.Fields))
	for n := range ref.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := ref.Fields[n]
		g, ok := got.Fields[n]
		if !ok {
			return fmt.Errorf("field %s missing", n)
		}
		scale := math.Max(math.Abs(r.Min), math.Abs(r.Max))
		stats := []struct {
			what     string
			got, ref float64
		}{{"min", g.Min, r.Min}, {"max", g.Max, r.Max}, {"mean", g.Mean, r.Mean}, {"weighted", g.Weighted, r.Weighted}}
		for _, st := range stats {
			if !within(st.got, st.ref, scale) {
				return fmt.Errorf("field %s %s = %v, reference %v (tolerance %.0e relative)", n, st.what, st.got, st.ref, referenceTol)
			}
		}
	}
	return nil
}

// within reports |a−b| <= referenceTol·scale (false for NaN).
func within(a, b, scale float64) bool { return math.Abs(a-b) <= referenceTol*scale }

func readReference(path string) (referenceFile, error) {
	var ref referenceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("parse %s: %w", path, err)
	}
	return ref, nil
}

func writeReference(path string, ref referenceFile) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// shortRun builds the problem, steps it horizonSteps times on the given
// number of ranks (2×1×1 when 2) the way the drivers do, and returns the
// assembled global state and the time step.
func shortRun(p *s3d.Problem, ranks int) (snapshot, float64, error) {
	debug.FreeOSMemory() // as stepper.run does: peak RSS stays one run's
	g := p.Config.Grid
	snap := newSnapshot([3]int{g.Nx, g.Ny, g.Nz}, stateFields(p.Config.Mechanism.Species()))
	dts := make([]float64, ranks)
	errs := make([]error, ranks)
	err := runRanks(p.Config, ranks, func(r rankSim) {
		r.sim.SetInitial(p.Initial, p.InitPressure)
		dt := dtFactor * r.sim.StableDtGlobal()
		for i := 0; i < horizonSteps; i++ {
			r.sim.Advance(1, dt)
		}
		local, err := takeSnapshot(r.sim, snap.names)
		if err != nil {
			errs[r.rank] = err
			return
		}
		snap.place(local, r.offset)
		dts[r.rank] = dt
	})
	if err != nil {
		return snap, 0, err
	}
	for _, e := range errs {
		if e != nil {
			return snap, 0, e
		}
	}
	for _, dt := range dts[1:] {
		if dt != dts[0] {
			return snap, 0, fmt.Errorf("ranks disagree on dt: %v", dts)
		}
	}
	return snap, dts[0], nil
}

// crossPathCheck runs the serial and the 2-rank path over the short
// horizon and compares them field-wise. The two problems are built from
// the same options; tests plant a defect in one of them.
func crossPathCheck(serial, decomposed *s3d.Problem) error {
	a, dtA, err := shortRun(serial, 1)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	b, dtB, err := shortRun(decomposed, 2)
	if err != nil {
		return fmt.Errorf("2-rank run: %w", err)
	}
	if math.Abs(dtA-dtB) > crossPathTol*dtA {
		return fmt.Errorf("dt differs: serial %v, 2-rank %v", dtA, dtB)
	}
	if err := compareFields(a, b, crossPathTol); err != nil {
		return fmt.Errorf("2-rank vs serial: %w", err)
	}
	return nil
}

// referenceCheck runs the problem serially over the short horizon and
// compares it with the committed reference.
func referenceCheck(p *s3d.Problem, ref problemReference) error {
	s, dt, err := shortRun(p, 1)
	if err != nil {
		return err
	}
	return compareReference(summarize(s, dt), ref)
}

// restartCheck checks a restart through the checkpoint in two parts. In a
// decomposed run every rank calls it at the same point (stepping is
// collective), so a rank that cannot read its checkpoint must panic rather
// than return early.
//
//  1. Read-back: sim is saved with save and at once read back with load.
//     The fields computed from the conserved state alone (ρ, u, v, w, Y)
//     must come back bit-for-bit; T and p, which the read-back recovers by
//     Newton iteration from the restored temperature, within
//     restartDriftTol. How far T moved is returned as drift, for the run
//     record (README.md, "Restart and the Newton seed").
//  2. Continuation: sim continues restartSteps steps, the checkpoint is
//     read back into that later state and the same steps are repeated. The
//     two continuations must agree bit-for-bit, so anything the checkpoint
//     does not restore (a field, the Newton seed, step or time) shows.
func restartCheck(sim *s3d.Simulation, dt float64, names []string, save, load func(*s3d.Simulation) error) (drift float64, err error) {
	if err := save(sim); err != nil {
		return 0, fmt.Errorf("write checkpoint: %w", err)
	}
	saved, err := takeSnapshot(sim, names)
	if err != nil {
		return 0, err
	}
	if err := load(sim); err != nil {
		return 0, fmt.Errorf("read checkpoint back: %w", err)
	}
	read, err := takeSnapshot(sim, names)
	if err != nil {
		return 0, err
	}
	newton := map[string]bool{"T": true, "p": true}
	exact, inexact := split(saved, newton), split(read, newton)
	if err := bitwiseEqual(exact[0], inexact[0]); err != nil {
		return 0, fmt.Errorf("read-back: %w", err)
	}
	if _, drift, err = maxRelDiff(exact[1], inexact[1]); err != nil {
		return 0, err
	}
	if err := compareFields(exact[1], inexact[1], restartDriftTol); err != nil {
		return drift, fmt.Errorf("read-back: %w", err)
	}

	sim.Advance(restartSteps, dt)
	a, err := takeSnapshot(sim, names)
	if err != nil {
		return drift, err
	}
	if err := load(sim); err != nil {
		return drift, fmt.Errorf("read checkpoint back: %w", err)
	}
	sim.Advance(restartSteps, dt)
	b, err := takeSnapshot(sim, names)
	if err != nil {
		return drift, err
	}
	if err := bitwiseEqual(a, b); err != nil {
		return drift, fmt.Errorf("restart does not continue bit-exactly after %d steps: %w (largest: %v)",
			restartSteps, err, compareFields(a, b, 0))
	}
	return drift, nil
}

// split returns the fields of s not in sel and those in sel, as two
// snapshots that share s's storage.
func split(s snapshot, sel map[string]bool) [2]snapshot {
	var out [2]snapshot
	for i := range out {
		out[i] = snapshot{dims: s.dims, fields: s.fields}
	}
	for _, n := range s.names {
		i := 0
		if sel[n] {
			i = 1
		}
		out[i].names = append(out[i].names, n)
	}
	return out
}
