package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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

func TestRunJSONSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-json", "-scale", "0.02", "-threads", "1,2",
		"-repeats", "1", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	var recs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	// 1 matrix × 2 thread counts × 3 ops (factorize, apply, solve).
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for _, r := range recs {
		for _, key := range []string{"matrix", "n", "nnz", "method", "op", "threads", "ns_per_op"} {
			if _, ok := r[key]; !ok {
				t.Fatalf("record missing %q: %v", key, r)
			}
		}
		if r["ns_per_op"].(float64) <= 0 {
			t.Fatalf("non-positive ns_per_op: %v", r)
		}
	}
}

func TestRunJSONStats(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-json", "-stats", "-scale", "0.02", "-threads", "1,2",
		"-repeats", "1", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	var doc struct {
		Records      []map[string]any `json:"records"`
		RuntimeStats map[string]any   `json:"runtime_stats"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not the stats JSON object: %v\n%s", err, out.String())
	}
	if len(doc.Records) != 6 {
		t.Fatalf("got %d records, want 6", len(doc.Records))
	}
	for _, key := range []string{"regions", "chunks", "gangs", "gang_wait_ns",
		"steal_attempts", "parks", "spin_to_parks"} {
		if _, ok := doc.RuntimeStats[key]; !ok {
			t.Fatalf("runtime_stats missing %q: %v", key, doc.RuntimeStats)
		}
	}
	// The measured run factorizes and applies: regions must have run.
	if doc.RuntimeStats["regions"].(float64) <= 0 {
		t.Fatalf("runtime_stats.regions not positive: %v", doc.RuntimeStats)
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

func TestRunCompareSmoke(t *testing.T) {
	// Compare against the checked-in pr5 baseline with a threshold no
	// machine can trip: the mode must match records, print ratios, and
	// exit 0. Records in the baseline but not re-measured here (other
	// matrices) are listed, not failed.
	var out, errb bytes.Buffer
	rc := run([]string{"-compare", "../../BENCH_pr5.json", "-threshold", "1e9",
		"-scale", "0.02", "-threads", "1,2", "-repeats", "1", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s\n%s", rc, errb.String(), out.String())
	}
	for _, want := range []string{"ratio", "wang3", "apply", "only in baseline:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("compare output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("nothing can regress past 1e9x:\n%s", out.String())
	}
}

func TestRunCompareBadFile(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-compare", "no_such_file.json"}, &out, &errb); rc != 2 {
		t.Fatalf("missing file: rc=%d", rc)
	}
	if rc := run([]string{"-compare", "main.go"}, &out, &errb); rc != 2 {
		t.Fatalf("non-JSON baseline: rc=%d stderr=%s", rc, errb.String())
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
	// Forcing go-reference must stamp every record with it, whatever
	// the build/CPU default is.
	var out, errb bytes.Buffer
	rc := run([]string{"-json", "-variant", "go-reference", "-scale", "0.02",
		"-threads", "1", "-repeats", "1", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	var recs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if r["variant"] != "go-reference" {
			t.Fatalf("record variant %v, want go-reference: %v", r["variant"], r)
		}
	}
}

func TestRunPairedVariants(t *testing.T) {
	// A comma-separated -variant list with -json runs the suite once
	// per table: paired records distinguished by their variant field.
	var out, errb bytes.Buffer
	rc := run([]string{"-json", "-variant", "go-reference,go-blocked", "-scale", "0.02",
		"-threads", "1", "-repeats", "1", "-matrices", "wang3"}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc=%d stderr=%s", rc, errb.String())
	}
	var recs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6 (3 ops × 2 variants)", len(recs))
	}
	byVariant := map[any]int{}
	for _, r := range recs {
		byVariant[r["variant"]]++
	}
	if byVariant["go-reference"] != 3 || byVariant["go-blocked"] != 3 {
		t.Fatalf("unpaired records: %v", byVariant)
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
	errb.Reset()
	if rc := run([]string{"-variant", "go-reference,go-blocked", "-exp", "table1"}, &out, &errb); rc != 2 {
		t.Fatalf("multi-variant without -json: rc=%d", rc)
	}
	errb.Reset()
	if rc := run([]string{"-json", "-stats", "-variant", "go-reference,go-blocked"}, &out, &errb); rc != 2 {
		t.Fatalf("multi-variant with -stats: rc=%d", rc)
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
	if rc := run([]string{"-bogus"}, &out, &errb); rc != 2 {
		t.Fatalf("bogus flag: rc=%d", rc)
	}
}
