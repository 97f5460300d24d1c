package analyzers

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// parseWants scans a fixture file for `// want `regex“ comments and
// returns the expected-finding regexes keyed by line.
func parseWants(t *testing.T, path string) map[int][]*regexp.Regexp {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const marker = "// want `"
	wants := map[int][]*regexp.Regexp{}
	sc := bufio.NewScanner(f)
	for num := 1; sc.Scan(); num++ {
		line := sc.Text()
		i := strings.Index(line, marker)
		if i < 0 {
			continue
		}
		rest := line[i+len(marker):]
		j := strings.Index(rest, "`")
		if j < 0 {
			t.Fatalf("%s:%d: unterminated want pattern", path, num)
		}
		re, err := regexp.Compile(rest[:j])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern: %v", path, num, err)
		}
		wants[num] = append(wants[num], re)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// checkFindings matches findings against the fixture's want
// annotations 1:1 in both directions: every finding must hit a want on
// its line, and every want must be hit.
func checkFindings(t *testing.T, findings []Finding, fixture string) {
	t.Helper()
	wants := parseWants(t, fixture)
	used := map[*regexp.Regexp]bool{}
	for _, f := range findings {
		if filepath.Base(f.File) != filepath.Base(fixture) {
			t.Errorf("finding outside fixture file: %s", f)
			continue
		}
		matched := false
		for _, re := range wants[f.Line] {
			if !used[re] && re.MatchString(f.Message) {
				used[re] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			if !used[re] {
				t.Errorf("%s:%d: no finding matched want %q", fixture, line, re)
			}
		}
	}
}

// runFixture loads the fixture package in dir and runs a over it.
func runFixture(t *testing.T, a *Analyzer, dir string) []Finding {
	t.Helper()
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	for _, pkg := range pkgs {
		if err := RunAnalyzer(a, pkg, &findings); err != nil {
			t.Fatal(err)
		}
	}
	return findings
}

// runModuleFixture loads the fixture packages under dir and runs the
// module analyzer a over the loaded set.
func runModuleFixture(t *testing.T, a *Analyzer, dir string) []Finding {
	t.Helper()
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	if err := RunModuleAnalyzer(a, pkgs, &findings); err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestPinPairFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "pinpair")
	findings := runFixture(t, PinPair, dir)
	checkFindings(t, findings, filepath.Join(dir, "pinpair.go"))
}

func TestPinPairEdgeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "pinpair_edge")
	findings := runFixture(t, PinPair, dir)
	checkFindings(t, findings, filepath.Join(dir, "pinpair_edge.go"))
}

func TestAtomicVetFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "atomicvet")
	findings := runFixture(t, AtomicVet, dir)
	checkFindings(t, findings, filepath.Join(dir, "atomicvet.go"))
}

func TestLockVetFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "lockvet")
	findings := runFixture(t, LockVet, dir)
	checkFindings(t, findings, filepath.Join(dir, "lockvet.go"))
}

func TestCtxLoopFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "ctxloop")
	findings := runFixture(t, CtxLoop, dir)
	checkFindings(t, findings, filepath.Join(dir, "ctxloop.go"))
}

func TestCtxLoopSkipsOtherPackages(t *testing.T) {
	// The cancellation contract is scoped to the krylov package: loops
	// elsewhere are out of scope.
	dir := filepath.Join("testdata", "src", "pinpair")
	if findings := runFixture(t, CtxLoop, dir); len(findings) != 0 {
		t.Fatalf("ctxloop ran outside internal/krylov: %v", findings)
	}
}

func TestNoAllocGraphFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "noallocgraph")
	findings := runModuleFixture(t, NoAllocGraph, dir)
	checkFindings(t, findings, filepath.Join(dir, "noallocgraph.go"))
}

func TestKernelPurityFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "kernelpurity")
	findings := runFixture(t, KernelPurity, dir)
	checkFindings(t, findings, filepath.Join(dir, "kernelpurity.go"))
}

func TestKernelPuritySkipsOtherPackages(t *testing.T) {
	// The determinism rules are scoped to the kernels package: the
	// same violations in an unrelated package produce no findings.
	dir := filepath.Join("testdata", "src", "pinpair")
	if findings := runFixture(t, KernelPurity, dir); len(findings) != 0 {
		t.Fatalf("kernelpurity ran outside internal/kernels: %v", findings)
	}
}

func TestHotAllocFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "hotalloc")
	findings := runFixture(t, HotAlloc, dir)
	checkFindings(t, findings, filepath.Join(dir, "hotalloc.go"))
}

func TestAsmVetFixtures(t *testing.T) {
	for _, file := range []string{
		filepath.Join("testdata", "asm", "bad_amd64.s"),
		filepath.Join("testdata", "asm", "good_amd64.s"),
		filepath.Join("testdata", "asm", "bad_arm64.s"),
		filepath.Join("testdata", "asm", "good_arm64.s"),
	} {
		var findings []Finding
		pkg := &Package{PkgPath: "asmfixture", SFiles: []string{file}}
		if err := RunAnalyzer(AsmVet, pkg, &findings); err != nil {
			t.Fatal(err)
		}
		checkFindings(t, findings, file)
	}
}

func TestAsmVetSkipsUnknownArch(t *testing.T) {
	// Architectures without a rule table are out of scope: the riscv64
	// fixture's FMADDD must not be flagged.
	var findings []Finding
	pkg := &Package{PkgPath: "asmfixture", SFiles: []string{
		filepath.Join("testdata", "asm", "skip_riscv64.s"),
	}}
	if err := RunAnalyzer(AsmVet, pkg, &findings); err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("asmvet checked an unknown-arch file: %v", findings)
	}
}
