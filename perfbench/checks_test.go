package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/sdf"
)

// Every check must accept the optimized diffusive-flux kernel (a
// legitimate change of floating-point evaluation order) and reject planted
// defects: chemistry switched off, or one cell of the initial state
// perturbed.

func liftedJet(t *testing.T, tweak func(*s3d.Problem)) *s3d.Problem {
	t.Helper()
	p, err := buildProblem("liftedjet", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(p)
	}
	return p
}

func optimizedDiffFlux(p *s3d.Problem) { p.Config.OptimizedDiffFlux = true }
func chemistryOff(p *s3d.Problem)      { p.Config.ChemistryOff = true }

// perturbCell returns a tweak that scales the initial temperature of the
// single mesh cell at the domain centre by factor.
func perturbCell(t *testing.T, factor float64) func(*s3d.Problem) {
	return func(p *s3d.Problem) {
		sim, err := s3d.New(p.Config)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys, _ := sim.Coords()
		xc, yc := xs[len(xs)/2], ys[len(ys)/2]
		init := p.Initial
		p.Initial = func(x, y, z float64, st *s3d.State) {
			init(x, y, z, st)
			if x == xc && y == yc {
				st.T *= factor
			}
		}
	}
}

func TestCrossPathCheck(t *testing.T) {
	if err := crossPathCheck(liftedJet(t, nil), liftedJet(t, nil)); err != nil {
		t.Errorf("unmodified: %v", err)
	}
	if err := crossPathCheck(liftedJet(t, optimizedDiffFlux), liftedJet(t, optimizedDiffFlux)); err != nil {
		t.Errorf("optimized diff-flux kernel rejected: %v", err)
	}
	if err := crossPathCheck(liftedJet(t, nil), liftedJet(t, chemistryOff)); err == nil {
		t.Error("2-rank run without chemistry accepted")
	}
	if err := crossPathCheck(liftedJet(t, nil), liftedJet(t, perturbCell(t, 1.01))); err == nil {
		t.Error("2-rank run with one perturbed cell accepted")
	}
}

func TestReferenceCheck(t *testing.T) {
	ref, err := readReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"liftedjet", "bunsen"} {
		pr := ref.Problems[kind]
		build := func(tweak func(*s3d.Problem)) *s3d.Problem {
			p, err := buildProblem(kind, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			if tweak != nil {
				tweak(p)
			}
			return p
		}
		if err := referenceCheck(build(nil), pr); err != nil {
			t.Errorf("%s unmodified: %v", kind, err)
		}
		if err := referenceCheck(build(optimizedDiffFlux), pr); err != nil {
			t.Errorf("%s optimized diff-flux kernel rejected: %v", kind, err)
		}
		if err := referenceCheck(build(chemistryOff), pr); err == nil {
			t.Errorf("%s without chemistry accepted", kind)
		}
		if err := referenceCheck(build(perturbCell(t, 1.01)), pr); err == nil {
			t.Errorf("%s with one perturbed cell accepted", kind)
		}
	}
}

func TestInvariants(t *testing.T) {
	good := func() snapshot {
		s := newSnapshot([3]int{2, 2, 1}, []string{"rho", "u", "T", "p"})
		for i := 0; i < 4; i++ {
			s.fields["rho"][i], s.fields["u"][i], s.fields["T"][i], s.fields["p"][i] = 1, -3, 1500, 1e5
		}
		return s
	}
	if err := checkInvariants(good()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, plant := range map[string]func(s snapshot){
		"NaN velocity":   func(s snapshot) { s.fields["u"][3] = math.NaN() },
		"Inf pressure":   func(s snapshot) { s.fields["p"][1] = math.Inf(1) },
		"zero density":   func(s snapshot) { s.fields["rho"][2] = 0 },
		"negative p":     func(s snapshot) { s.fields["p"][0] = -1 },
		"T at fit floor": func(s snapshot) { s.fields["T"][1] = 200 },
		"T above range":  func(s snapshot) { s.fields["T"][0] = 4000 },
	} {
		s := good()
		plant(s)
		if err := checkInvariants(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// On a real simulation: the unmodified and the optimized-kernel lifted
	// jet pass after the short horizon; an initial state with one cell
	// heated past the fit range (the inversion saturates at its top) fails.
	for name, c := range map[string]struct {
		tweak func(*s3d.Problem)
		steps int
		ok    bool
	}{
		"unmodified":          {nil, horizonSteps, true},
		"optimized diff-flux": {optimizedDiffFlux, horizonSteps, true},
		"one cell at 10x T":   {perturbCell(t, 10), 0, false},
	} {
		p := liftedJet(t, c.tweak)
		sim, _ := steppedSim(t, p, c.steps)
		s, err := takeSnapshot(sim, stateFields(p.Config.Mechanism.Species()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkInvariants(s); (err == nil) != c.ok {
			t.Errorf("%s: invariants = %v, want ok=%v", name, err, c.ok)
		}
	}
}

// fileCheckpoint saves to and loads from one file, as the benchmark does.
func fileCheckpoint(t *testing.T) (path string, save, load func(*s3d.Simulation) error) {
	path = filepath.Join(t.TempDir(), "restart.ckpt")
	save = func(sim *s3d.Simulation) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sim.SaveCheckpoint(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	load = func(sim *s3d.Simulation) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return sim.LoadCheckpoint(f)
	}
	return path, save, load
}

// steppedSim builds and initialises p serially and takes a few steps.
func steppedSim(t *testing.T, p *s3d.Problem, steps int) (*s3d.Simulation, float64) {
	t.Helper()
	sim, err := s3d.New(p.Config)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInitial(p.Initial, p.InitPressure)
	dt := dtFactor * sim.StableDt()
	for i := 0; i < steps; i++ {
		sim.Advance(1, dt)
	}
	return sim, dt
}

func TestRestartCheck(t *testing.T) {
	// A complete checkpoint passes, with the default and the optimized
	// diff-flux kernel, and the read-back's drift of T is an ulp or so.
	for name, tweak := range map[string]func(*s3d.Problem){
		"unmodified":          nil,
		"optimized diff-flux": optimizedDiffFlux,
	} {
		p := liftedJet(t, tweak)
		sim, dt := steppedSim(t, p, 3)
		_, save, load := fileCheckpoint(t)
		drift, err := restartCheck(sim, dt, stateFields(p.Config.Mechanism.Species()), save, load)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !(drift >= 0 && drift <= restartDriftTol) {
			t.Errorf("%s: read-back drift %v", name, drift)
		}
		t.Logf("%s: read-back drift %.3g", name, drift)
	}
	// Planted defects: a read-back that silently keeps the current state,
	// and one that restores one value of the first checkpointed variable
	// (the density) off by a relative 1e-12.
	ignore := func(string) func(*s3d.Simulation) error {
		return func(*s3d.Simulation) error { return nil }
	}
	perturbed := func(path string) func(*s3d.Simulation) error {
		return func(sim *s3d.Simulation) error {
			f, err := sdf.ReadFile(path)
			if err != nil {
				return err
			}
			v := f.Vars[0].Data
			v[len(v)/2] *= 1 + 1e-12
			var buf bytes.Buffer
			if err := f.Encode(&buf); err != nil {
				return err
			}
			return sim.LoadCheckpoint(&buf)
		}
	}
	for name, defect := range map[string]func(path string) func(*s3d.Simulation) error{
		"ignores the checkpoint":       ignore,
		"restores one value 1e-12 off": perturbed,
	} {
		p := liftedJet(t, nil)
		sim, dt := steppedSim(t, p, 3)
		path, save, _ := fileCheckpoint(t)
		if _, err := restartCheck(sim, dt, stateFields(p.Config.Mechanism.Species()), save, defect(path)); err == nil {
			t.Errorf("restart that %s accepted", name)
		}
	}
}
