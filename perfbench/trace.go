package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span: a named interval with its parent span and
// the operation it belongs to. Times are nanoseconds since the recorder was
// created. Attrs carries small annotations (variant, pair, the daemon's
// trace ID for HTTP requests).
type spanRec struct {
	Name   string            `json:"name"`
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Op     uint64            `json:"op"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op, so workload code calls it
// unconditionally.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open span handle.
type span struct {
	r      *recorder
	id, op uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]string
}

// newOp allocates an operation ID (0 when untraced).
func (r *recorder) newOp() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// start opens a span under parent (0 for a root) in operation op.
func (r *recorder) start(name string, op, parent uint64, attrs map[string]string) span {
	if r == nil {
		return span{}
	}
	return span{r: r, id: r.nextID.Add(1), op: op, parent: parent, name: name, start: time.Now(), attrs: attrs}
}

// end closes the span now.
func (s span) end() { s.endAt(time.Now()) }

// endAt closes the span at t.
func (s span) endAt(t time.Time) {
	if s.r == nil {
		return
	}
	s.r.push(s.name, s.id, s.op, s.parent, s.start, t, s.attrs)
}

// add records a span whose interval is already known, returning its ID.
func (r *recorder) add(name string, op, parent uint64, start, end time.Time, attrs map[string]string) uint64 {
	if r == nil {
		return 0
	}
	id := r.nextID.Add(1)
	r.push(name, id, op, parent, start, end, attrs)
	return id
}

// push appends one closed span.
func (r *recorder) push(name string, id, op, parent uint64, start, end time.Time, attrs map[string]string) {
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Attrs: attrs,
	})
	r.mu.Unlock()
}

// writeJSONL writes a header line with the run's provenance and then one
// span per line.
func (r *recorder) writeJSONL(path string, provenance map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": provenance}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
