package analyzers

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
)

// AsmVet is a text/lexical checker for the repo's hand-written
// assembly, covering the contracts stdlib asmdecl knows nothing about.
// Files are keyed by their GOARCH filename suffix (kernels_amd64.s,
// kernels_arm64.s, ...) and checked against that architecture's rule
// table; architectures without a table are skipped, not failed.
//
//  1. No fused-multiply-add opcode may appear anywhere, on any
//     checked architecture (amd64 VFMADD*/VFNMADD*/VFMSUB*/VFNMSUB*;
//     arm64 FMADD*/FMSUB*/FNMADD*/FNMSUB* and the vector FMLA/FMLS
//     family). FMA contracts a multiply and add into a single
//     rounding, which breaks the bitwise-identity contract between
//     kernel variants.
//  2. amd64 only: every RET in an AVX-bodied TEXT block must be
//     immediately preceded by VZEROUPPER (skipping blank lines and
//     labels). Leaving the upper YMM halves dirty on return imposes
//     an AVX→SSE transition penalty on every caller until the next
//     VZEROUPPER — a silent, hard-to-profile slowdown. No other
//     architecture has this state-transition hazard, so the rule is
//     keyed to amd64 alone.
//
// Comments (both // and /* */) are stripped before matching, so prose
// mentioning an opcode does not count. A TEXT block is "AVX-bodied"
// when it contains at least one VEX-prefixed vector instruction
// (mnemonic starting with V, excluding VZEROUPPER/VZEROALL
// themselves).
var AsmVet = &Analyzer{
	Name: "asmvet",
	Doc:  "per-GOARCH assembly contracts: no FMA opcodes anywhere; amd64 VZEROUPPER before every RET of an AVX-bodied TEXT block",
	Run:  runAsmVet,
}

// asmRules is one architecture's opcode rule table.
type asmRules struct {
	// fmaPrefixes: a mnemonic starting with any of these is a banned
	// fused multiply-add.
	fmaPrefixes []string
	// vzeroupper: enforce the VZEROUPPER-before-RET rule (the AVX/SSE
	// transition hazard is amd64-specific).
	vzeroupper bool
}

// asmArchRules keys rule tables by GOARCH filename suffix. An
// architecture absent here is out of scope and its files are skipped
// (the riscv64 port, should one appear, gets a table when its kernels
// do).
var asmArchRules = map[string]*asmRules{
	"amd64": {
		fmaPrefixes: []string{"VFMADD", "VFNMADD", "VFMSUB", "VFNMSUB"},
		vzeroupper:  true,
	},
	"arm64": {
		// Scalar FMADD/FMSUB/FNMADD/FNMSUB (D/S suffixed) and the
		// NEON FMLA/FMLS family (vector forms carry a V prefix in Go
		// syntax; FMLAL/FMLSL widening forms share the prefix).
		fmaPrefixes: []string{
			"FMADD", "FMSUB", "FNMADD", "FNMSUB",
			"FMLA", "FMLS", "VFMLA", "VFMLS",
		},
	},
}

// asmFileArch extracts the GOARCH suffix from an assembly filename
// ("kernels_amd64.s" → "amd64"; "" when the name carries no suffix).
func asmFileArch(path string) string {
	base := strings.TrimSuffix(filepath.Base(path), ".s")
	i := strings.LastIndexByte(base, '_')
	if i < 0 {
		return ""
	}
	return base[i+1:]
}

func runAsmVet(pass *Pass) error {
	for _, sf := range pass.SFiles {
		rules := asmArchRules[asmFileArch(sf)]
		if rules == nil {
			continue
		}
		if err := vetAsmFile(pass, sf, rules); err != nil {
			return err
		}
	}
	return nil
}

type asmLine struct {
	num  int
	text string // comment-stripped, trimmed
}

func vetAsmFile(pass *Pass, path string, rules *asmRules) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var lines []asmLine
	inBlockComment := false
	sc := bufio.NewScanner(f)
	for num := 1; sc.Scan(); num++ {
		text, still := stripAsmComments(sc.Text(), inBlockComment)
		inBlockComment = still
		lines = append(lines, asmLine{num: num, text: strings.TrimSpace(text)})
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Split into TEXT blocks and check each.
	blockStart := -1
	flush := func(end int) {
		if blockStart >= 0 && rules.vzeroupper {
			vetTextBlock(pass, path, lines[blockStart:end])
		}
	}
	for i, ln := range lines {
		if strings.HasPrefix(ln.text, "TEXT ") || strings.HasPrefix(ln.text, "TEXT\t") {
			flush(i)
			blockStart = i
		}
		// The FMA ban applies file-wide, TEXT block or not.
		if op := opcodeOf(ln.text); isFMAOpcode(op, rules) {
			pass.ReportAt(path, ln.num, 0, "FMA opcode %s: fused mul+add is a single rounding and breaks bitwise identity between kernel variants", op)
		}
	}
	flush(len(lines))
	return nil
}

func vetTextBlock(pass *Pass, file string, block []asmLine) {
	avx := false
	for _, ln := range block {
		op := opcodeOf(ln.text)
		if isAVXOpcode(op) {
			avx = true
			break
		}
	}
	if !avx {
		return
	}
	for i, ln := range block {
		if opcodeOf(ln.text) != "RET" {
			continue
		}
		// Walk back over blank lines and labels to the previous
		// instruction.
		ok := false
		for j := i - 1; j > 0; j-- {
			t := block[j].text
			if t == "" || strings.HasSuffix(t, ":") {
				continue
			}
			ok = opcodeOf(t) == "VZEROUPPER"
			break
		}
		if !ok {
			pass.ReportAt(file, ln.num, 0, "RET in AVX-bodied TEXT block not preceded by VZEROUPPER: dirty upper YMM state penalizes every SSE instruction after return")
		}
	}
}

// opcodeOf extracts the instruction mnemonic from a comment-stripped
// line ("" for blanks, directives are returned as-is).
func opcodeOf(line string) string {
	if line == "" {
		return ""
	}
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line
	}
	return line[:i]
}

func isAVXOpcode(op string) bool {
	if !strings.HasPrefix(op, "V") {
		return false
	}
	// VZEROUPPER/VZEROALL clean state rather than dirty it.
	return !strings.HasPrefix(op, "VZERO")
}

func isFMAOpcode(op string, rules *asmRules) bool {
	for _, p := range rules.fmaPrefixes {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

// stripAsmComments removes // line comments and /* */ block comments,
// threading block-comment state across lines.
func stripAsmComments(line string, inBlock bool) (string, bool) {
	var b strings.Builder
	i := 0
	for i < len(line) {
		if inBlock {
			end := strings.Index(line[i:], "*/")
			if end < 0 {
				return b.String(), true
			}
			i += end + 2
			inBlock = false
			continue
		}
		if strings.HasPrefix(line[i:], "//") {
			return b.String(), false
		}
		if strings.HasPrefix(line[i:], "/*") {
			i += 2
			inBlock = true
			continue
		}
		b.WriteByte(line[i])
		i++
	}
	return b.String(), false
}
