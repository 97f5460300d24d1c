//go:build amd64 && !purego

package kernels

import (
	"testing"

	"javelin/internal/cpuid"
)

// The feature-detection fallback, driven through the seams
// (resolveDefault / archTablesFor) so a machine without AVX2 is
// simulated, not required: for either detection outcome the default
// variant must name a table that the same outcome registers — the
// process-init mustLookup(defaultVariant) can never panic.
func TestResolveDefaultAlwaysRegistered(t *testing.T) {
	for _, hasAVX2 := range []bool{false, true} {
		reg := append([]*Table{referenceTable, blockedTable}, archTablesFor(hasAVX2)...)
		name := resolveDefault(hasAVX2)
		found := false
		for _, tb := range reg {
			if tb.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("hasAVX2=%v: default %q not in registry %v", hasAVX2, name, reg)
		}
	}
	if got := resolveDefault(false); got != "go-blocked" {
		t.Fatalf("no-AVX2 default: %q, want go-blocked", got)
	}
	if got := resolveDefault(true); got != "avx2" {
		t.Fatalf("AVX2 default: %q, want avx2", got)
	}
}

func TestArchTablesFeatureGated(t *testing.T) {
	if tabs := archTablesFor(false); len(tabs) != 0 {
		t.Fatalf("no-AVX2 machine still registers %d arch tables", len(tabs))
	}
	tabs := archTablesFor(true)
	if len(tabs) != 1 || tabs[0].Name != "avx2" {
		t.Fatalf("AVX2 machine registers %v, want [avx2]", tabs)
	}
	// Every slot must be populated: slots without an asm body fill
	// from go-blocked, never nil.
	tb := tabs[0]
	for name, fn := range map[string]bool{
		"Dot": tb.Dot != nil, "SumSq": tb.SumSq != nil,
		"Axpy": tb.Axpy != nil, "Scale": tb.Scale != nil,
		"SpMVRows": tb.SpMVRows != nil, "PanelUpdate": tb.PanelUpdate != nil,
		"TriLower": tb.TriLower != nil, "TriUpper": tb.TriUpper != nil,
		"GatherPerm": tb.GatherPerm != nil, "ScatterPerm": tb.ScatterPerm != nil,
	} {
		if !fn {
			t.Fatalf("avx2 table slot %s is nil", name)
		}
	}
}

// On the machine actually running the tests, registration must agree
// with detection: Lookup("avx2") succeeds exactly when cpuid says the
// table is safe, and on AVX2 hardware it is also the resolved default
// for this (!purego) build.
func TestAVX2RegistrationMatchesDetection(t *testing.T) {
	tb, err := Lookup("avx2")
	if cpuid.HasAVX2() {
		if err != nil {
			t.Fatalf("AVX2 detected but table not registered: %v", err)
		}
		if len(tb.AsmSlots) == 0 {
			t.Fatal("avx2 table reports no asm-backed slots")
		}
		if defaultVariant != "avx2" {
			t.Fatalf("AVX2 detected but default is %q", defaultVariant)
		}
	} else {
		if err == nil {
			t.Fatal("no AVX2 but Lookup(\"avx2\") succeeded")
		}
		if defaultVariant != "go-blocked" {
			t.Fatalf("no AVX2 but default is %q", defaultVariant)
		}
	}
}
