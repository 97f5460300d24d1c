package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestCleanOnRealTree is the driver smoke test: the full suite must
// exit 0 over the repo's own packages.
func TestCleanOnRealTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", filepath.Join("..", ".."), "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("javelin-vet ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run produced output:\n%s", stdout.String())
	}
}

// TestFindingsOnFixture drives the seeded pinpair fixture through the
// driver: exit 1 with findings enabled, exit 0 with the analyzer off.
func TestFindingsOnFixture(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analyzers", "testdata", "src", "pinpair")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on seeded fixture, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[pinpair]") {
		t.Fatalf("findings missing pinpair tag:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", dir, "-pinpair=false", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with -pinpair=false, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestJSONOutput checks the -json mode emits a JSON array (empty on a
// clean package, populated on the fixture).
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", filepath.Join("..", ".."), "-json", "./internal/analyzers"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 0 {
		t.Fatalf("clean package produced findings: %v", findings)
	}
}

// TestDeterministicOutput runs the full suite over several seeded
// fixture packages at once — exercising per-package analyzers and the
// module-wide, escape-analysis-backed noallocgraph — and asserts the
// output is byte-identical across runs and sorted by file then line
// (analyzer maps and package load order must not leak into the
// report).
func TestDeterministicOutput(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analyzers", "testdata", "src")
	args := []string{"-dir", dir, "-json",
		"./pinpair", "./lockvet", "./atomicvet", "./hotalloc", "./noallocgraph"}

	outputs := make([]string, 2)
	for i := range outputs {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("run %d: exit %d on seeded fixtures, want 1\nstderr:\n%s",
				i, code, stderr.String())
		}
		outputs[i] = stdout.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output differs between runs:\n--- first ---\n%s\n--- second ---\n%s",
			outputs[0], outputs[1])
	}

	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
	}
	if err := json.Unmarshal([]byte(outputs[0]), &findings); err != nil {
		t.Fatalf("-json output not a JSON array: %v\n%s", err, outputs[0])
	}
	if len(findings) == 0 {
		t.Fatal("seeded fixtures produced no findings")
	}
	analyzers := map[string]bool{}
	for i, f := range findings {
		analyzers[f.Analyzer] = true
		if i == 0 {
			continue
		}
		prev := findings[i-1]
		if f.File < prev.File || (f.File == prev.File && f.Line < prev.Line) {
			t.Errorf("findings out of order: %s:%d after %s:%d",
				f.File, f.Line, prev.File, prev.Line)
		}
	}
	if len(analyzers) < 3 {
		t.Errorf("expected findings from several analyzers, got %v", analyzers)
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on bad flag, want 2", code)
	}
}
