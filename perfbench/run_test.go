package main

import (
	"strings"
	"testing"

	"github.com/s3dgo/s3d"
)

// A step that blows up must be recorded as a failed operation, on one rank
// (a recovered panic) and on two (an error from RunDecomposed, with the
// peer released from the benchmark's barrier), and the benchmark must go
// on to report.
func TestRunCountsFailedSteps(t *testing.T) {
	ref, err := readReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"liftedjet-serial", "liftedjet-2rank"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		// Planted defect: an acoustic CFL number far past stability.
		opt := options{seed: 5, seconds: 1, out: t.TempDir(), setupReps: 1,
			tweak: func(p *s3d.Problem) { p.Config.CFL = 25 }}
		rep := run(wl, opt, ref)
		if rep.tally.Failed == 0 || rep.tally.Attempted < rep.tally.Failed {
			t.Errorf("%s: tally %+v, want failures counted", name, rep.tally)
		}
		found := false
		for _, f := range rep.Failures {
			found = found || strings.HasPrefix(f, "step: ")
		}
		if !found {
			t.Errorf("%s: no failed step recorded in %q", name, rep.Failures)
		}
		// The stepping is one operation, like each check, so one more
		// failure moves ok_frac by at least an eighth.
		if rep.tally.Attempted > 8 {
			t.Errorf("%s: %d operations attempted, want at most 8", name, rep.tally.Attempted)
		}
		if rep.FailedFrac <= 0 || rep.EndToEnd["ok_frac"] != 1-rep.FailedFrac {
			t.Errorf("%s: failed_frac %v, ok_frac %v", name, rep.FailedFrac, rep.EndToEnd["ok_frac"])
		}
		t.Logf("%s: %+v %q", name, rep.tally, rep.Failures)
	}
}
