// Command benchmark is javelin's repository benchmark: one named
// workload per invocation, measured as a closed loop from one process
// with at most two threads.
//
//	go run . --workload pde-cg --seed 1 --seconds 20 --trace 0
//
// The untraced run (--trace 0) reports the end-to-end metrics. The
// traced run (--trace 1) repeats the workload with spans around every
// call into a layer, runs each layer's entry points standalone, writes
// the spans to --trace-file and reports the per-layer metrics. Both
// print one JSON report (run stamp, metrics with units, output checks)
// and then, as the last line, the summary
// {"correct", "attempted", "failed", "metrics"}. A failed check makes
// the exit code 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"javelin"
	"javelin/internal/cpuid"
	"javelin/internal/kernels"
)

// lanes is the thread budget of every run: the runtime's parallelism,
// and the nproc of the reference host.
const lanes = 2

type config struct {
	w         workload
	seed      uint64
	seconds   float64
	trace     bool
	traceFile string
	// scale is the generator scale; tests shrink it, and the input
	// fingerprint is checked only at the workload's own scale.
	scale float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pde-cg, circuit-gmres, powerflow-refactor or pde-cg-shared")
	seed := fs.Uint64("seed", 1, "seed of the right-hand sides and value perturbations")
	seconds := fs.Float64("seconds", nominalSeconds, "measured length on the reference host; scales the fixed operation counts")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics and a span file), 0 for end-to-end metrics")
	traceFile := fs.String("trace-file", "", "span file of the traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, traceFile: *traceFile, scale: w.scale}
	if cfg.trace && cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "benchmark: output checks failed:", rep.Checks.Errors)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the run: code, toolchain, host, workload and input.
type stamp struct {
	Commit        string         `json:"commit"`
	GoVersion     string         `json:"go_version"`
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"num_cpu"`
	CPUFeatures   string         `json:"cpu_features"`
	KernelVariant string         `json:"kernel_variant"`
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Seconds       float64        `json:"seconds"`
	Traced        bool           `json:"traced"`
	Ops           map[string]int `json:"ops"`
	MatrixN       int            `json:"matrix_n"`
	MatrixNnz     int            `json:"matrix_nnz"`
	MatrixFNV64   string         `json:"matrix_fnv64"`
	RHSFNV64      string         `json:"rhs_fnv64"`
}

type checks struct {
	Fingerprint    bool     `json:"input_fingerprint"`
	MaxRelResidual float64  `json:"rel_residual_max"`
	FailedFrac     float64  `json:"failed_frac"`
	Errors         []string `json:"errors,omitempty"`
}

// report is the full JSON document of one run. Metrics holds the
// BENCHMARK.json metrics of the run's mode; Detail adds the
// workload's own names (solve_ms.p90, refactorize_ms.p50, ...) and the
// sample counts behind the tails.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail"`
	Checks    checks            `json:"checks"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

func writeReport(w io.Writer, rep *report) error {
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", doc, last)
	return err
}

func newStamp(cfg config, in *inputs) stamp {
	return stamp{
		Commit:        commit(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUFeatures:   cpuid.Detected().String(),
		KernelVariant: kernels.Variant(),
		Workload:      cfg.w.name,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Traced:        cfg.trace,
		Ops:           map[string]int{},
		MatrixN:       in.raw.N(),
		MatrixNnz:     in.raw.Nnz(),
		MatrixFNV64:   fmt.Sprintf("%016x", fnvMatrix(in.raw.Raw())),
		RHSFNV64:      fmt.Sprintf("%016x", fnvVec(in.rhs[0])),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// scaled is a nominal operation count at the run's --seconds, at least
// one pass over the input pool.
func (cfg config) scaled(nominal int, frac float64) int {
	n := int(math.Round(float64(nominal) * frac * cfg.seconds / nominalSeconds))
	return max(n, poolSize)
}

func runWorkload(cfg config) (*report, error) {
	w := cfg.w
	in, err := makeInputs(w, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Stamp: newStamp(cfg, in), Metrics: map[string]metric{}, Detail: map[string]metric{}}
	rep.Checks.Fingerprint = cfg.scale != w.scale || fnvMatrix(in.raw.Raw()) == w.matrixFNV
	if !rep.Checks.Fingerprint {
		rep.Checks.Errors = append(rep.Checks.Errors,
			fmt.Sprintf("input matrix fingerprint %s, expected %016x", rep.Stamp.MatrixFNV64, w.matrixFNV))
	}

	rt := javelin.NewRuntime(lanes)
	defer rt.Close()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sys, sts, err := setUpMedian(in, w, w.threads, rt, tr)
	if err != nil {
		return nil, err
	}
	defer sys.p.Close()

	var phases []*phase
	if cfg.trace {
		phases, err = tracedRun(cfg, rep, sys, sts, in, rt, tr)
	} else {
		phases, err = untracedRun(cfg, rep, sys, sts, in, rt)
	}
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for _, r := range ph.ops {
			rep.Attempted++
			rep.Checks.MaxRelResidual = math.Max(rep.Checks.MaxRelResidual, r.relres)
			if r.err != nil {
				rep.Failed++
				if len(rep.Checks.Errors) < 10 {
					rep.Checks.Errors = append(rep.Checks.Errors, r.err.Error())
				}
			}
		}
	}
	rep.Checks.FailedFrac = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Correct = rep.Failed == 0 && rep.Checks.Fingerprint
	return rep, nil
}

// opName is what one operation of the workload is called in Detail.
func opName(w workload) string {
	if w.refactor {
		return "step"
	}
	return "solve"
}

// untracedRun measures the end-to-end metrics: the measured phase at the
// workload's threads and clients, interleaved with the serial baseline
// on a Threads=1 system.
func untracedRun(cfg config, rep *report, sys *system, sts []setupTimes, in *inputs, rt *javelin.Runtime) ([]*phase, error) {
	w := cfg.w
	sys1, _, err := setUp(in, w, 1, rt, nil)
	if err != nil {
		return nil, err
	}
	defer sys1.p.Close()
	if w.refactor {
		if err := sys1.prepareSteps(in); err != nil {
			return nil, err
		}
	}
	par, err := sys.newPhase(w, w.threads, w.clients, cfg.scaled(w.ops, 1), in, rt, nil)
	if err != nil {
		return nil, err
	}
	ser, err := sys1.newPhase(w, 1, 1, cfg.scaled(w.serialOps, 1), in, rt, nil)
	if err != nil {
		return nil, err
	}
	interleave(par, ser)
	rep.Stamp.Ops["setup"] = setups
	rep.Stamp.Ops["measured"] = len(par.ops)
	rep.Stamp.Ops["serial"] = len(ser.ops)

	var setupS, heap []float64
	for _, t := range sts {
		setupS = append(setupS, t.total.Seconds())
		heap = append(heap, t.heapBytes/1e6)
	}
	lat := ofOps(par.ops, totalMs)
	tail := tailPercentile(len(lat))
	op := opName(w)
	m := rep.Metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["setup_heap_mb"] = metric{median(heap), "MB"}
	// The gated latency is the mean: the shared reference host switches
	// between two speeds for seconds at a time, and the median jumps
	// with the mix while the mean moves with it (see CALIBRATION.md).
	// The median and the tail are in Detail.
	m["op_ms.mean"] = metric{mean(lat), "ms"}
	m["ops_per_s"] = metric{float64(len(lat)) / par.busy.Seconds(), "1/s"}
	m["iterations.mean"] = metric{mean(ofOps(par.ops, iters)), "count"}

	// Detail: the median, the tail and the serial baseline under the
	// workload's own names. They have no bound: on the shared reference
	// host their run-to-run spread came close to the widest bound
	// allowed (see CALIBRATION.md).
	d := rep.Detail
	d[op+"_ms.p50"] = metric{median(lat), "ms"}
	d[fmt.Sprintf("%s_ms.p%d", op, tail)] = metric{percentile(lat, tail), "ms"}
	d["tail.samples_beyond"] = metric{float64(len(lat) - rank(len(lat), tail)), "count"}
	d[op+"_1t_ms.p50"] = metric{median(ofOps(ser.ops, totalMs)), "ms"}
	if w.refactor {
		d["refactorize_ms.p50"] = metric{median(ofOps(par.ops, func(r opResult) float64 { return ms(r.refac) })), "ms"}
		d["solve_ms.p50"] = metric{median(ofOps(par.ops, func(r opResult) float64 { return ms(r.solve) })), "ms"}
		d["update_values_ms.p50"] = metric{median(ofOps(par.ops, func(r opResult) float64 { return ms(r.update) })), "ms"}
	}
	d["iterations_1t.mean"] = metric{mean(ofOps(ser.ops, iters)), "count"}
	return []*phase{par, ser}, nil
}

// tracedRun measures the per-layer metrics: a quarter of the measured
// phase untraced interleaved with half of it traced (their medians give
// the tracing overhead), then the standalone layer phase. It writes the
// span file.
func tracedRun(cfg config, rep *report, sys *system, sts []setupTimes, in *inputs, rt *javelin.Runtime, tr *tracer) ([]*phase, error) {
	w := cfg.w
	plain, err := sys.newPhase(w, w.threads, w.clients, cfg.scaled(w.ops, 0.25), in, rt, nil)
	if err != nil {
		return nil, err
	}
	traced, err := sys.newPhase(w, w.threads, w.clients, cfg.scaled(w.ops, 0.5), in, rt, tr)
	if err != nil {
		return nil, err
	}
	interleave(plain, traced)
	m := rep.Metrics
	if err := runLayers(sys, w, rt, tr, cfg.seed, m); err != nil {
		return nil, err
	}
	if err := checkSpans(tr.spans); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	if err := tr.write(cfg.traceFile, w.name, cfg.seed); err != nil {
		return nil, err
	}
	rep.Stamp.Ops["setup"] = setups
	rep.Stamp.Ops["untraced"] = len(plain.ops)
	rep.Stamp.Ops["traced"] = len(traced.ops)
	rep.Stamp.Ops["spans"] = len(tr.spans)

	var pre, fac []float64
	for _, t := range sts {
		pre = append(pre, ms(t.preorder))
		fac = append(fac, ms(t.factorize))
	}
	m["order.preorder_ms"] = metric{median(pre), "ms"}
	m["core.factorize_ms"] = metric{median(fac), "ms"}
	m["levelset.levels"] = metric{float64(sys.p.NumLevels()), "count"}
	m["levelset.upper_rows"] = metric{float64(sys.p.NUpper()), "count"}
	m["levelset.lower_rows"] = metric{float64(sys.a.N() - sys.p.NUpper()), "count"}
	a := sys.a.Raw()
	// Computed bytes of one CSR matvec: values and column indices once
	// per entry, row pointers, x and y once per row (8-byte words).
	bytes := 8 * float64(2*a.Nnz()+3*a.N+1)
	m["spmv.gbps_computed"] = metric{bytes / (1e3 * m["spmv.matvec_us"].Value), "GB/s"}

	m["krylov.iter_us"] = metric{median(durations(traced.gaps(), us)), "us"}
	// Every Krylov iteration applies the preconditioner once and
	// multiplies by A once; closure is the share of a solve those two
	// layers explain, the rest being vector kernels and overhead.
	apply, matvec := m["core.apply_us"].Value, m["spmv.matvec_us"].Value
	if w.threads == 1 {
		apply, matvec = m["core.apply_1t_us"].Value, m["spmv.matvec_1t_us"].Value
	}
	itMean := mean(ofOps(traced.ops, iters))
	solveUs := median(ofOps(traced.ops, func(r opResult) float64 { return us(r.solve) }))
	m["krylov.closure"] = metric{ratio(itMean*(apply+matvec), solveUs), "ratio"}

	ops := float64(len(traced.ops))
	st := traced.stats
	m["exec.regions_per_op"] = metric{float64(st.Regions) / ops, "count/op"}
	m["exec.gangs_per_op"] = metric{float64(st.Gangs) / ops, "count/op"}
	// No gang call waited for admission in any workload (one client at
	// two threads), so the gang wait is reported but not a metric.
	rep.Detail["exec.gang_wait_us_per_op"] = metric{float64(st.GangWaitNs) / 1e3 / ops, "us/op"}
	m["exec.chunks_per_region"] = metric{ratio(float64(st.Chunks), float64(st.Regions)), "count/region"}
	m["exec.parks_per_op"] = metric{float64(st.Parks) / ops, "count/op"}
	m["exec.spin_to_parks_per_op"] = metric{float64(st.SpinToParks) / ops, "count/op"}
	m["exec.steal_success_ratio"] = metric{ratio(float64(st.StealSuccesses), float64(st.StealAttempts)), "ratio"}

	plainP50 := median(ofOps(plain.ops, totalMs))
	tracedP50 := median(ofOps(traced.ops, totalMs))
	m["trace_overhead_pct"] = metric{100 * (ratio(tracedP50, plainP50) - 1), "%"}
	rep.Detail[opName(w)+"_ms.p50.untraced"] = metric{plainP50, "ms"}
	rep.Detail[opName(w)+"_ms.p50.traced"] = metric{tracedP50, "ms"}
	return []*phase{plain, traced}, nil
}

// ofOps applies f to every successful operation.
func ofOps(ops []opResult, f func(opResult) float64) []float64 {
	var out []float64
	for _, r := range ops {
		if r.err == nil {
			out = append(out, f(r))
		}
	}
	return out
}

func iters(r opResult) float64   { return float64(r.iters) }
func totalMs(r opResult) float64 { return ms(r.total) }
