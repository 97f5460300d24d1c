package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"javelin"
)

// span is one timed interval of the traced run. Parent 0 marks a root.
// Req is the request id: every span of one solve or step carries the
// id of that operation, and spans outside any operation carry 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so both modes share one code
// path and the untraced run pays only a nil check per boundary.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span starting now and returns its id (0 on nil).
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, req, t.now())
}

func (t *tracer) beginAt(name string, parent int, req uint64, at int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: at, End: -1})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.endAt(id, t.now())
}

func (t *tracer) endAt(id int, at int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// iterMonitor backs a WithMonitor callback that records one krylov.iter
// span per callback under the current solve span: each iteration span
// runs from its callback to the next one, and finish closes the last at
// the end of the solve. gaps collects the intervals between successive
// callbacks. One monitor serves one client goroutine; it records
// nothing for a solve started without a span (a warm-up), and a nil
// monitor does nothing at all.
type iterMonitor struct {
	t      *tracer
	parent int
	req    uint64
	open   int
	last   int64
	gaps   []time.Duration
}

func (m *iterMonitor) startSolve(parent int, req uint64) {
	if m != nil {
		m.parent, m.req, m.open = parent, req, 0
	}
}

func (m *iterMonitor) callback(javelin.IterInfo) bool {
	if m.parent == 0 {
		return true
	}
	at := m.t.now()
	if m.open != 0 {
		m.t.endAt(m.open, at)
		m.gaps = append(m.gaps, time.Duration(at-m.last))
	}
	m.open = m.t.beginAt("krylov.iter", m.parent, m.req, at)
	m.last = at
	return true
}

func (m *iterMonitor) finish() {
	if m != nil && m.open != 0 {
		m.t.end(m.open)
		m.open = 0
	}
}

// traceFile is the span file format: the run's identity and every span,
// times in nanoseconds since the run started.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// checkSpans verifies the span-tree invariants: every span is closed and
// lies inside its parent, children of one parent do not overlap (so self
// time is never negative), and every span under an operation carries
// that operation's request id, distinct from every other operation's.
func checkSpans(spans []span) error {
	childSum := make(map[int]int64)
	reqOwner := make(map[uint64]int)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q not closed or ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] outside parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if p.Req != 0 && s.Req != p.Req {
			return fmt.Errorf("span %d %q has request %d, parent %d has %d", s.ID, s.Name, s.Req, p.ID, p.Req)
		}
		childSum[s.Parent] += s.End - s.Start
	}
	for _, s := range spans {
		if self := (s.End - s.Start) - childSum[s.ID]; self < 0 {
			return fmt.Errorf("span %d %q has negative self time %d ns", s.ID, s.Name, self)
		}
		if s.Req == 0 || (s.Parent != 0 && spans[s.Parent-1].Req == s.Req) {
			continue
		}
		if prev, ok := reqOwner[s.Req]; ok {
			return fmt.Errorf("request %d is used by spans %d and %d", s.Req, prev, s.ID)
		}
		reqOwner[s.Req] = s.ID
	}
	return nil
}
