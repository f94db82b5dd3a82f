package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanRingSize is how many of its most recent spans each client keeps.
const spanRingSize = 1 << 14

// spanTxn marks the span of a whole transaction or replay; every call
// span of the same txn id is its child.
const spanTxn int8 = -1

// span is one call into a layer, timed by the benchmark around the call.
// Times are offsets from the start of the measured interval.
type span struct {
	txn        uint64
	kind       int8 // an opKind, or spanTxn
	start, end time.Duration
}

// spanRing keeps the most recent spans in memory; nothing is written
// until the run has finished measuring.
type spanRing struct {
	buf  []span
	next int
	full bool
}

func newSpanRing(n int) *spanRing { return &spanRing{buf: make([]span, n)} }

func (r *spanRing) add(s span) {
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *spanRing) items() []span {
	if !r.full {
		return append([]span(nil), r.buf[:r.next]...)
	}
	return append(append([]span(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}

// writeSpans writes spans as JSON lines to dir/<workload>-seed<n>.jsonl:
// one object per span with its trace (txn) id, its parent (the txn span,
// for a call), its name and its start and end in nanoseconds.
func writeSpans(o options, spans []span) (string, error) {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Trace  uint64 `json:"trace"`
		Parent string `json:"parent,omitempty"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, s := range spans {
		l := line{Trace: s.txn, Name: "txn", Start: int64(s.start), End: int64(s.end)}
		if s.kind != spanTxn {
			l.Name, l.Parent = opNames[s.kind], "txn"
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
