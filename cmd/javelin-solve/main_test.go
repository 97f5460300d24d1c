package main

import (
	"bytes"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestRunSolveCGSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "wang3", "-scale", "0.02", "-solver", "cg",
		"-threads", "2"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "factorized in") || !strings.Contains(s, "converged=true") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestRunSolveGMRESSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "trans4", "-scale", "0.02", "-solver", "gmres",
		"-lower", "er"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "gmres:") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunSolveRejectsBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-matrix", "not-a-matrix"}, &out, &errb); rc != 1 {
		t.Fatalf("unknown matrix: rc=%d", rc)
	}
	if rc := run([]string{"-solver", "qr", "-matrix", "wang3", "-scale", "0.02"}, &out, &errb); rc != 1 {
		t.Fatalf("unknown solver: rc=%d", rc)
	}
	if rc := run([]string{"-bogus"}, &out, &errb); rc != 2 {
		t.Fatalf("bogus flag: rc=%d", rc)
	}
}

func TestRunSolveBiCGSTABSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "trans4", "-scale", "0.02", "-solver", "bicgstab",
		"-threads", "2"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "bicgstab:") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunSolveAutoSelectsMethod(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "wang3", "-scale", "0.02", "-solver", "auto"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "auto-selected method:") {
		t.Fatalf("auto selection not reported:\n%s", out.String())
	}
}

func TestRunSolveDriftDemo(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "wang3", "-scale", "0.02", "-threads", "2",
		"-drift"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"fresh solve: pair=(A-epoch 1, factor-epoch 1)",
		"published drifted values: matrix epoch 2",
		"stale solve: pair=(A-epoch 2, factor-epoch 1)",
		"auto-refactorized: matrix epoch 2 -> factor epoch 2",
		"restored solve: pair=(A-epoch 2, factor-epoch 2)",
		"drift stats:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("-drift output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSolveReportsNonConvergence(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-matrix", "wang3", "-scale", "0.02", "-solver", "cg",
		"-tol", "1e-30", "-maxiter", "3"}, &out, &errb)
	if rc != 1 {
		t.Fatalf("rc=%d, want 1 for non-convergence", rc)
	}
	if !strings.Contains(errb.String(), "no convergence in 3 iterations") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}

// TestRunSolvePrintsSolveRoute: the last line names the route the
// solves ended on, each route's live estimate and sample count, and
// the switches. At one thread every count is 0; at two, with two Ps,
// the forward sweeps start inline, so the inline route has samples:
// an inline sweep counts once the worker has had exec.IdleSpin to park
// after Factorize's regions, and this solve takes milliseconds.
func TestRunSolvePrintsSolveRoute(t *testing.T) {
	line := regexp.MustCompile(`^solve route: (inline|phased) \(inline (\S+) from (\d+) sweeps, phased (\S+) from (\d+) sweeps, (\d+) switches\)$`)
	for _, threads := range []string{"1", "2"} {
		var out, errb bytes.Buffer
		rc := run([]string{"-matrix", "wang3", "-scale", "0.2", "-solver", "cg",
			"-threads", threads}, &out, &errb)
		if rc != 0 {
			t.Fatalf("threads=%s: rc=%d stderr=%s", threads, rc, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		route := lines[len(lines)-1]
		m := line.FindStringSubmatch(route)
		if m == nil || !strings.HasPrefix(lines[len(lines)-2], "cg: converged=true") {
			t.Fatalf("threads=%s: want the route line right after the solve's, got:\n%s", threads, out.String())
		}
		live := threads == "2" && runtime.GOMAXPROCS(0) >= 2
		if zero := "solve route: inline (inline 0s from 0 sweeps, phased 0s from 0 sweeps, 0 switches)"; !live && route != zero {
			t.Fatalf("threads=%s: route line %q, want %q", threads, route, zero)
		}
		if live && m[3] == "0" {
			t.Fatalf("threads=%s: route line %q has no inline sample", threads, route)
		}
	}
}
