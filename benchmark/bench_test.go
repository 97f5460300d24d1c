package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{20, 50}, {99, 50}, {100, 90}, {120, 90}, {199, 90},
		{200, 95}, {300, 95}, {999, 95}, {1000, 99}, {2000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// smokeScale shrinks each workload's matrix so the whole smoke test
// stays within seconds.
var smokeScale = map[string]float64{
	"pde-cg": 0.01, "circuit-gmres": 0.02, "powerflow-refactor": 0.02, "pde-cg-shared": 0.01,
}

// TestWorkloadsSmoke runs every workload in both modes at reduced size
// and count, and checks that each run is correct, prints the summary
// line with every metric BENCHMARK.json lists for its mode (with its
// unit), and, when traced, writes a span file whose tree holds.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{w: w, seed: 7, seconds: 0.4, trace: traced, scale: smokeScale[w.name],
				traceFile: filepath.Join(t.TempDir(), "trace.json")}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, errors %v",
					w.name, traced, last.Correct, last.Attempted, last.Failed, rep.Checks.Errors)
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(last.Metrics), len(want))
			}
			if traced {
				checkTraceFile(t, w, cfg.traceFile)
			}
		}
	}
}

// checkTraceFile reloads a span file and checks the tree invariants and
// its shape: setups hold their three phases, every operation has its
// own request id, solves hold their Krylov iterations, and steps hold
// the update, the refactorization and the solve.
func checkTraceFile(t *testing.T, w workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if err := checkSpans(tf.Spans); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	children := make(map[int]map[string]int)
	for _, s := range tf.Spans {
		if children[s.Parent] == nil {
			children[s.Parent] = make(map[string]int)
		}
		children[s.Parent][s.Name]++
	}
	want := map[string][]string{
		"setup": {"order.preorder", "core.factorize", "javelin.new_solver"},
		"solve": {"krylov.iter"},
		"step":  {"sparse.update_values", "core.refactorize", "solve"},
	}
	seen := make(map[string]int)
	for _, s := range tf.Spans {
		seen[s.Name]++
		for _, c := range want[s.Name] {
			if children[s.ID][c] == 0 {
				t.Errorf("%s: span %d %q has no %q child", w.name, s.ID, s.Name, c)
			}
		}
		if (s.Name == "step" || (s.Name == "solve" && s.Parent == 0)) && s.Req == 0 {
			t.Errorf("%s: operation span %d has no request id", w.name, s.ID)
		}
	}
	op := "solve"
	if w.refactor {
		op = "step"
	}
	if seen["setup"] != setups || seen[op] == 0 || seen["layers"] != 1 {
		t.Errorf("%s: span counts %v", w.name, seen)
	}
}

// TestSameSeedRepeats checks that iterations.mean and the input
// fingerprints repeat exactly across two runs with one seed.
func TestSameSeedRepeats(t *testing.T) {
	w, err := lookupWorkload("circuit-gmres")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: w, seed: 3, seconds: 0.4, scale: smokeScale[w.name]}
	var reps []*report
	for i := 0; i < 2; i++ {
		rep, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	a, b := reps[0], reps[1]
	if a.Metrics["iterations.mean"] != b.Metrics["iterations.mean"] {
		t.Errorf("iterations.mean %v then %v", a.Metrics["iterations.mean"], b.Metrics["iterations.mean"])
	}
	if a.Stamp.MatrixFNV64 != b.Stamp.MatrixFNV64 || a.Stamp.RHSFNV64 != b.Stamp.RHSFNV64 {
		t.Errorf("fingerprints %s/%s then %s/%s", a.Stamp.MatrixFNV64, a.Stamp.RHSFNV64, b.Stamp.MatrixFNV64, b.Stamp.RHSFNV64)
	}
}
