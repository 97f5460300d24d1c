package main

import (
	"bytes"
	"strings"
	"testing"

	"javelin/internal/kernels"
)

func TestRunTableSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-exp", "table1", "-scale", "0.02", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "wang3") {
		t.Fatalf("table output missing matrix name:\n%s", out.String())
	}
}

func TestRunTableStats(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-exp", "table1", "-stats", "-scale", "0.02",
		"-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "runtime stats (shared pool") {
		t.Fatalf("-stats table output missing stats section:\n%s", out.String())
	}
}

func TestRunListVariants(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-list-variants"}, &out, &errb); rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	for _, want := range []string{"go-reference", "go-blocked"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list-variants missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunForcedVariant(t *testing.T) {
	// -variant makes the named table active before any engine exists,
	// whatever the build/CPU default is.
	prev := kernels.Active()
	t.Cleanup(func() {
		if _, err := kernels.Select(prev.Name); err != nil {
			t.Error(err)
		}
	})
	var out, errb bytes.Buffer
	rc := run([]string{"-variant", "go-reference", "-exp", "table1", "-scale", "0.02",
		"-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	if got := kernels.Variant(); got != "go-reference" {
		t.Fatalf("active variant %q after -variant go-reference", got)
	}
}

func TestRunRejectsBadVariants(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-variant", "no-such-table"}, &out, &errb); rc != 2 {
		t.Fatalf("unknown variant: rc=%d", rc)
	}
	if !strings.Contains(errb.String(), "unknown variant") ||
		!strings.Contains(errb.String(), "go-blocked") {
		t.Fatalf("error should name the known variants: %s", errb.String())
	}
	// A comma list is one (unknown) table name, not a pairing.
	errb.Reset()
	if rc := run([]string{"-variant", "go-reference,go-blocked", "-exp", "table1"}, &out, &errb); rc != 2 {
		t.Fatalf("comma-list variant: rc=%d", rc)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-exp", "nope"}, &out, &errb); rc != 2 {
		t.Fatalf("unknown experiment: rc=%d", rc)
	}
	if rc := run([]string{"-threads", "0"}, &out, &errb); rc != 2 {
		t.Fatalf("bad threads: rc=%d", rc)
	}
	// The BENCH_*.json trajectory flags are not defined.
	for _, args := range [][]string{{"-bogus"}, {"-json"},
		{"-compare", "BENCH_pr10.json"}, {"-threshold", "10"}} {
		errb.Reset()
		if rc := run(args, &out, &errb); rc != 2 ||
			!strings.Contains(errb.String(), "flag provided but not defined") {
			t.Fatalf("%v: rc=%d stderr=%s", args, rc, errb.String())
		}
	}
}
