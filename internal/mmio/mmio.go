// Package mmio reads and writes MatrixMarket coordinate files so real
// SuiteSparse matrices (the paper's Table I suite) can be used in
// place of the synthetic analogues when available.
//
// Supported headers: matrix coordinate {real,integer,pattern}
// {general,symmetric,skew-symmetric}. Complex matrices and any other
// field or symmetry are rejected.
package mmio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"javelin/internal/sparse"
)

// header mirrors the %%MatrixMarket banner fields.
type header struct {
	object   string
	format   string
	field    string
	symmetry string
}

// maxDim bounds the row and column counts the size line may declare,
// so the nnz ≤ n·m check cannot overflow; 1<<28 (about 2.7×10⁸)
// leaves room for matrices far larger than the paper's suite.
const maxDim = 1 << 28

// dimSlack is how many empty rows or columns Read accepts: n and m may
// exceed the number of stored entries by at most this much. The CSR's
// row pointers are sized by n, so without it a one-line size line
// could demand gigabytes that no entry in the file backs. A square
// matrix with a full diagonal has at least n entries, so real inputs
// are far inside the bound.
const dimSlack = 1 << 16

// Read parses a MatrixMarket coordinate stream into CSR. It rejects a
// malformed size line (a negative count, a dimension above maxDim, or
// more entries than n·m cells), a non-square symmetric or
// skew-symmetric matrix, a NaN or ±Inf value with an error
// wrapping sparse.ErrNonFinite, duplicate entries whose sum
// overflows, and a dimension that exceeds the stored entries by more
// than dimSlack. Errors about one line name it, 1-based. Storage
// grows with the entries actually read: neither the header's entry
// count nor its dimensions alone size an allocation.
func Read(r io.Reader) (*sparse.CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return nil, fmt.Errorf("mmio: empty input: %w", err)
	}
	h, err := parseHeader(line)
	if err != nil {
		return nil, err
	}
	if h.object != "matrix" || h.format != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported header %q %q", h.object, h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	case "complex":
		return nil, errors.New("mmio: complex matrices are not supported")
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", h.symmetry)
	}

	lineNo := 1
	n, m, nnz, err := readSize(br, &lineNo)
	if err != nil {
		return nil, err
	}
	if h.symmetry != "general" && n != m {
		return nil, fmt.Errorf("mmio: %s matrix must be square, got %d x %d", h.symmetry, n, m)
	}
	coo := sparse.NewCOO(n, m, 0)
	count := 0
	for count < nnz {
		line, err = br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("mmio: truncated data after %d of %d entries", count, nnz)
		}
		lineNo++
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		fields := strings.Fields(t)
		if len(fields) < 2 {
			return nil, fmt.Errorf("mmio: line %d: bad entry %q", lineNo, t)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mmio: line %d: bad indices in %q", lineNo, t)
		}
		v := 1.0
		if h.field != "pattern" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("mmio: line %d: missing value in %q", lineNo, t)
			}
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: line %d: bad value in %q: %w", lineNo, t, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mmio: line %d: %w %q", lineNo, sparse.ErrNonFinite, fields[2])
			}
		}
		if i < 1 || i > n || j < 1 || j > m {
			return nil, fmt.Errorf("mmio: line %d: index (%d,%d) out of range %dx%d", lineNo, i, j, n, m)
		}
		i--
		j--
		coo.Add(i, j, v)
		switch h.symmetry {
		case "symmetric":
			if i != j {
				coo.Add(j, i, v)
			}
		case "skew-symmetric":
			if i != j {
				coo.Add(j, i, -v)
			}
		}
		count++
	}
	// Symmetric files store each off-diagonal entry once, so count
	// the expanded entries, not the lines.
	if stored := len(coo.I); n > stored+dimSlack || m > stored+dimSlack {
		return nil, fmt.Errorf("mmio: %d x %d matrix with %d stored entries has more than %d empty rows or columns", n, m, stored, dimSlack)
	}
	a := coo.ToCSR()
	// Duplicate entries are summed, and two finite values can sum to
	// ±Inf.
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, x := range vals {
			if math.IsInf(x, 0) {
				return nil, fmt.Errorf("mmio: duplicate entries at (%d,%d) sum to %w %g", i+1, cols[k]+1, sparse.ErrNonFinite, x)
			}
		}
	}
	return a, nil
}

// readSize reads the size line "n m nnz" after the banner, skipping
// comments and blank lines and advancing *lineNo past each line read.
// The counts must be non-negative, n and m at most maxDim, and nnz at
// most n·m.
func readSize(br *bufio.Reader, lineNo *int) (n, m, nnz int, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return 0, 0, 0, errors.New("mmio: missing size line")
		}
		*lineNo++
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		if _, err := fmt.Sscan(t, &n, &m, &nnz); err != nil {
			return 0, 0, 0, fmt.Errorf("mmio: line %d: bad size line %q: %w", *lineNo, t, err)
		}
		if n < 0 || m < 0 || nnz < 0 || n > maxDim || m > maxDim {
			return 0, 0, 0, fmt.Errorf("mmio: line %d: size %d x %d with %d entries out of range", *lineNo, n, m, nnz)
		}
		// n, m <= maxDim = 1<<28, so the product fits in a uint64.
		if uint64(nnz) > uint64(n)*uint64(m) {
			return 0, 0, 0, fmt.Errorf("mmio: line %d: %d entries do not fit a %d x %d matrix", *lineNo, nnz, n, m)
		}
		return n, m, nnz, nil
	}
}

func parseHeader(line string) (header, error) {
	if !strings.HasPrefix(line, "%%MatrixMarket") {
		return header{}, fmt.Errorf("mmio: missing %%%%MatrixMarket banner, got %q", strings.TrimSpace(line))
	}
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) < 5 {
		return header{}, fmt.Errorf("mmio: short banner %q", strings.TrimSpace(line))
	}
	return header{
		object:   fields[1],
		format:   fields[2],
		field:    fields[3],
		symmetry: fields[4],
	}, nil
}

// ReadFile loads a MatrixMarket file.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits a in MatrixMarket "coordinate real general" form.
func Write(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.N, a.M, a.Nnz()); err != nil {
		return err
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile stores a as a MatrixMarket file.
func WriteFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, a)
}
