package main

import (
	"bytes"
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

// TestRunSolvePrintsSolveRoute: the line after "factorized in" names
// the solves' route, without a probe at one thread and with the
// probe's best time on each route when one ran.
func TestRunSolvePrintsSolveRoute(t *testing.T) {
	for _, threads := range []string{"1", "2"} {
		var out, errb bytes.Buffer
		rc := run([]string{"-matrix", "wang3", "-scale", "0.02", "-solver", "cg",
			"-threads", threads}, &out, &errb)
		if rc != 0 {
			t.Fatalf("threads=%s: rc=%d stderr=%s", threads, rc, errb.String())
		}
		lines := strings.Split(out.String(), "\n")
		i := 0
		for i < len(lines) && !strings.HasPrefix(lines[i], "factorized in") {
			i++
		}
		if i+1 >= len(lines) {
			t.Fatalf("threads=%s: no line after \"factorized in\":\n%s", threads, out.String())
		}
		route := lines[i+1]
		probed := strings.HasPrefix(route, "solve route: inline (probe best: inline ") ||
			strings.HasPrefix(route, "solve route: phased (probe best: inline ")
		switch {
		case route == "solve route: inline (no probe)":
		case threads == "2" && probed && strings.Contains(route, ", phased "):
		default:
			t.Fatalf("threads=%s: route line %q", threads, route)
		}
	}
}
