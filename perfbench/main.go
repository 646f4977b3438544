// Command perfbench is the step-time benchmark of the s3d solver: the
// paper's figure-1 metric, µs per grid point per time step, on the
// reacting lifted jet and Bunsen flame through the public root API, with
// output checks and, in a separate traced run, per-layer figures.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload liftedjet-serial --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, every metric and the checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/s3dgo/s3d"
)

// options configure one benchmark run.
type options struct {
	seed      int64
	seconds   float64
	trace     bool
	out       string // directory for restart files and the span file
	setupReps int    // set-ups timed per run, before the one that steps
	// tweak, when set, modifies every problem the run builds — the hook
	// the self-tests use to plant defects and legitimate changes.
	tweak func(*s3d.Problem)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured; result selects from it.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Ranks      int      `json:"ranks"`
	CPU        string   `json:"cpu"`
	Steps      int      `json:"steps"`
	Tail       tailStat `json:"tail"`
	FailedFrac float64  `json:"failed_frac"`
	// ReadbackDrift is the largest relative change reading the checkpoint
	// back made to T in the restart check (README "Restart and the Newton
	// seed"): reported, not gated.
	ReadbackDrift float64            `json:"restart_readback_T_rel"`
	Failures      []string           `json:"failures,omitempty"`
	SpanFile      string             `json:"span_file,omitempty"`
	EndToEnd      map[string]float64 `json:"end_to_end"`
	// Raw holds the step-time metrics as measured, before normalising to
	// the probe's nominal speed.
	Raw      map[string]float64 `json:"raw_end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	tally tally
}

func (r *report) check(name string, err error) {
	r.tally.add(err == nil)
	if err != nil {
		r.Failures = append(r.Failures, name+": "+err.Error())
	}
}

// spec is the part of BENCHMARK.json the benchmark reads: the name and
// unit of every metric it reports, end-to-end and per layer.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s: no metrics listed", path)
	}
	return sp, nil
}

// selectMetrics pairs the measured values with the listed metrics and
// their units. It returns the names listed but not measured and the names
// measured but not listed.
func selectMetrics(listed []specMetric, measured map[string]float64) (sel map[string]metric, missing, unlisted []string) {
	sel = map[string]metric{}
	for _, m := range listed {
		v, ok := measured[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		sel[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := sel[name]; !ok && !slices.Contains(missing, name) {
			unlisted = append(unlisted, name)
		}
	}
	slices.Sort(unlisted)
	return sel, missing, unlisted
}

func main() {
	workloadName := flag.String("workload", "", "workload: liftedjet-serial | liftedjet-2rank | bunsen-2worker")
	seed := flag.Int64("seed", defaultSeed, "workload seed (turbulent inflow)")
	seconds := flag.Float64("seconds", 20, "stepping time to measure")
	traceOn := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/run", "directory for restart files and span files")
	refPath := flag.String("reference", "perfbench/reference.json", "committed short-horizon reference")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming every metric and its unit")
	writeRef := flag.Bool("write-reference", false, "regenerate the reference file for the default seed and exit")
	flag.Parse()

	if *writeRef {
		if err := regenerateReference(*refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ref, err := readReference(*refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spec:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, out: *out, setupReps: 5}
	rep := run(wl, opt, ref)

	info, _ := json.Marshal(rep)
	fmt.Println(string(info))
	listed, measured := sp.EndToEnd, rep.EndToEnd
	if opt.trace {
		listed, measured = sp.PerLayer, rep.PerLayer
	}
	sel, missing, unlisted := selectMetrics(listed, measured)
	if len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: listed but not measured:", strings.Join(missing, ", "))
	}
	if len(unlisted) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: measured but not listed:", strings.Join(unlisted, ", "))
	}
	res := result{
		Correct:   rep.tally.Failed == 0,
		Attempted: rep.tally.Attempted,
		Failed:    rep.tally.Failed,
		Metrics:   sel,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload: timed set-ups, the timed stepping run, the
// output checks and, when tracing, the per-layer figures.
func run(wl workload, opt options, ref referenceFile) *report {
	procs := min(wl.procs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	s3d.SetWorkers(wl.workers)
	rep := &report{
		Workload: wl.name, Seed: opt.seed, Gomaxprocs: procs, Workers: s3d.Workers(),
		Ranks: wl.ranks, CPU: cpuModel(), EndToEnd: map[string]float64{}, Raw: map[string]float64{},
	}
	species := mechanismSpecies(wl.problem)
	st := &stepper{wl: wl, opt: opt, tr: newTracer(opt.trace), names: stateFields(species)}
	gp := float64(gridNx * gridNy * gridNz)

	// The probe while no simulation exists, as rank 0 times it between
	// steps: the probe check's reference (probe.go), sampled before and
	// after the set-ups and after the timed run.
	idleProbe := newSpeedProbe(wl.lanes())
	idle := idleProbe.passes(idlePasses)

	// Set-up, timed several times and normalised to the probe's speed
	// measured right after each; then a last set-up goes on to step. The
	// timed set-ups are one operation.
	var setups, rawSetups []float64
	var setupErr error
	setupProbe := newSpeedProbe(1)
	for i := 0; i < opt.setupReps; i++ {
		at := st.run(nil)
		setupErr = firstErr(setupErr, at.err)
		if at.err == nil {
			rawSetups = append(rawSetups, at.setupSec)
			setups = append(setups, at.setupSec*probeRef/setupProbe.speed(3))
		}
		idle = append(idle, idleProbe.passes(4)...)
	}
	rep.check("setup", setupErr)

	// The timed run: stepping until the deadline, restarting from a fresh
	// set-up (up to 3 attempts) when a step fails. The stepping is one
	// operation, failed when any step failed, so that one failed output
	// check weighs as much in failed_frac as a failed step.
	length := time.Duration(opt.seconds * float64(time.Second))
	sched := &schedule{kinds: []phase{phUntraced}, lengths: []time.Duration{length}, minSteps: 12}
	if opt.trace {
		sched.kinds = []phase{phUntraced, phTraced}
		sched.lengths = []time.Duration{length / 2, length / 2}
	}
	// Step walls of every attempt, per phase: as measured and normalised
	// to the probe's nominal speed (probe.go).
	var raw, norm [2][]float64
	ioWall := 0.0            // restart-file writes inside the stepping loops
	var probes []probeSample // untraced steps
	var final *attempt
	var stepErr error
	for try := 0; try < 3; try++ {
		sched.restart()
		at := st.run(sched)
		for ph := range raw {
			// Ranks step in lockstep, so the slowest rank sets a step's
			// wall; rank 0 probed after each step.
			w := stepWalls(at.logs, func(lg *rankLog) []float64 { return lg.walls[ph] })
			var pr []probeSample
			if at.logs[0] != nil {
				pr = at.logs[0].probes[ph][:min(len(w), len(at.logs[0].probes[ph]))]
			}
			w = w[:len(pr)]
			raw[ph] = append(raw[ph], w...)
			norm[ph] = append(norm[ph], normalise(w, probeWalls(pr))...)
			if phase(ph) == phUntraced {
				probes = append(probes, pr...)
			}
		}
		completed := true
		for _, lg := range at.logs {
			completed = completed && lg != nil && lg.completed
		}
		if lg0 := at.logs[0]; lg0 != nil {
			for _, sec := range lg0.ckptWrite[:lg0.loopWrites] {
				ioWall += sec
			}
		}
		if !completed {
			stepErr = errors.Join(stepErr, fmt.Errorf("attempt %d: %v", try+1, at.err))
			if sched.expired() {
				break
			}
			continue
		}
		var invErr, restartErr error
		for _, lg := range at.logs {
			invErr = firstErr(invErr, lg.invariants)
			restartErr = firstErr(restartErr, lg.restart)
			rep.ReadbackDrift = math.Max(rep.ReadbackDrift, lg.drift)
		}
		rep.check("invariants", invErr)
		rep.check("restart", firstErr(restartErr, at.err))
		final = &at
		break
	}
	rep.check("step", stepErr)
	rep.Steps = len(raw[0]) + len(raw[1])

	// The probes between steps against idle ones, with the simulation torn
	// down; the medians are in the run record. Without a completed step
	// there is nothing to compare, and the stepping has failed already.
	idle = append(idle, idleProbe.passes(idlePasses)...)
	if len(probes) > 0 {
		rep.check("probe", probeCheck(probes, idle))
	}

	// Short-horizon checks, each on freshly built problems.
	rep.check("cross-path", func() error {
		a, err := st.problem(opt.seed)
		if err != nil {
			return err
		}
		b, err := st.problem(opt.seed)
		if err != nil {
			return err
		}
		return crossPathCheck(a, b)
	}())
	rep.check("reference", func() error {
		pr, ok := ref.Problems[wl.problem]
		if !ok {
			return fmt.Errorf("no reference for problem %q", wl.problem)
		}
		p, err := st.problem(defaultSeed)
		if err != nil {
			return err
		}
		return referenceCheck(p, pr)
	}())
	rep.FailedFrac = rep.tally.failedFrac()

	// The end-to-end step times come from the untraced steps; solve_s
	// covers every step plus the loop's restart-file writes.
	perGP := func(sec float64) float64 { return sec / gp * 1e6 }
	perSolve := func(walls [2][]float64) float64 {
		sum := ioWall
		for _, w := range walls {
			for _, sec := range w {
				sum += sec
			}
		}
		return sum / float64(rep.Steps) * solveRefSteps
	}
	last := func(xs []float64) []float64 { return xs[len(xs)-min(len(xs), wl.tailSteps):] }
	rep.Tail = tail(last(norm[phUntraced]), 10)
	rawTail := tail(last(raw[phUntraced]), 10)
	if len(norm[phUntraced]) > 0 {
		rep.EndToEnd["us_per_gp_step"] = perGP(median(norm[phUntraced]))
		rep.EndToEnd["us_per_gp_step_tail"] = perGP(rep.Tail.Value)
		rep.EndToEnd["solve_s"] = perSolve(norm)
		rep.Raw["probe_ms"] = median(probeWalls(probes)) * 1e3
		rep.Raw["probe_idle_ms"] = median(probeWalls(idle)) * 1e3
		rep.Raw["probe_foreign"] = median(probeForeign(probes))
		rep.Raw["probe_idle_foreign"] = median(probeForeign(idle))
		rep.Raw["us_per_gp_step"] = perGP(median(raw[phUntraced]))
		rep.Raw["us_per_gp_step_tail"] = perGP(rawTail.Value)
		rep.Raw["solve_s"] = perSolve(raw)
	}
	if len(setups) > 0 {
		rep.EndToEnd["setup_s"] = median(setups)
		rep.Raw["setup_s"] = median(rawSetups)
	}
	rep.EndToEnd["peak_rss_MB"] = peakRSSMB()
	rep.EndToEnd["ok_frac"] = 1 - rep.FailedFrac

	if opt.trace {
		rep.PerLayer = st.perLayer(final, norm, species)
		rep.PerLayer["bench.failed_frac"] = rep.FailedFrac
		path := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-spans.json", wl.name, opt.seed))
		if err := st.tr.write(path, fmt.Sprintf("%s-seed%d", wl.name, opt.seed)); err != nil {
			rep.Failures = append(rep.Failures, "span file: "+err.Error())
		} else {
			rep.SpanFile = path
		}
	}
	return rep
}

// solveRefSteps is the step count solve_s is normalised to: the stepping
// phase is bounded by --seconds, so its raw wall time would only echo it.
const solveRefSteps = 100

// problem builds the workload's problem for a seed, with the run's tweak.
func (st *stepper) problem(seed int64) (*s3d.Problem, error) {
	p, err := buildProblem(st.wl.problem, seed)
	if err != nil {
		return nil, err
	}
	if st.opt.tweak != nil {
		st.opt.tweak(p)
	}
	return p, nil
}

// stepWalls combines the ranks' step walls, as picked from each rank's
// log: a step's wall is the slowest rank's, over the steps every rank
// completed.
func stepWalls(logs []*rankLog, pick func(*rankLog) []float64) []float64 {
	per := make([][]float64, len(logs))
	n := -1
	for r, lg := range logs {
		if lg == nil {
			return nil
		}
		per[r] = pick(lg)
		if n < 0 || len(per[r]) < n {
			n = len(per[r])
		}
	}
	out := make([]float64, max(n, 0))
	for _, w := range per {
		for i := range out {
			out[i] = math.Max(out[i], w[i])
		}
	}
	return out
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

func mechanismSpecies(kind string) []string {
	m := mechanismOf(kind)
	out := make([]string, len(m.Set.Species))
	for i, sp := range m.Set.Species {
		out[i] = sp.Name
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel names the processor, for the record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// regenerateReference rewrites the committed reference from the serial
// short-horizon run of every problem at the default seed.
func regenerateReference(path string) error {
	ref := referenceFile{
		Seed: defaultSeed, HorizonSteps: horizonSteps,
		Grid: [3]int{gridNx, gridNy, gridNz}, Problems: map[string]problemReference{},
	}
	for _, kind := range []string{"liftedjet", "bunsen"} {
		p, err := buildProblem(kind, defaultSeed)
		if err != nil {
			return err
		}
		s, dt, err := shortRun(p, 1)
		if err != nil {
			return err
		}
		ref.Problems[kind] = summarize(s, dt)
	}
	return writeReference(path, ref)
}
