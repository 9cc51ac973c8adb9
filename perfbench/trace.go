package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
)

// span is one timed call at a layer boundary. Spans of one row share its id
// (tenant index and sequence number); a span with no row has id 0.
type span struct {
	Name   string `json:"name"`
	Tenant int32  `json:"tenant"`
	Seq    uint64 `json:"seq"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int32  `json:"rows"` // rows the call carried (the count at this boundary)
}

// tracer keeps spans in memory for the whole run; they are written out once
// the run ends. It also captures the tick-stream bytes crossing the wrapped
// handler, per tenant, so the single-goroutine layer replays run on exactly
// the lines that were served.
type tracer struct {
	mu       sync.Mutex
	spans    []span
	on       bool
	window   interval // the last recording period
	capBytes int
	in, out  map[string]*strings.Builder
}

func newTracer(capSpans, capBytes int) *tracer {
	return &tracer{
		spans:    make([]span, 0, capSpans),
		capBytes: capBytes,
		in:       map[string]*strings.Builder{},
		out:      map[string]*strings.Builder{},
	}
}

// setOn switches recording; a tracer that is off records nothing, so one
// run can hold an untraced and a traced phase.
func (t *tracer) setOn(on bool) {
	now := mono()
	t.mu.Lock()
	t.on = on
	if on {
		t.window = interval{now, now}
	} else {
		t.window.end = now
	}
	t.mu.Unlock()
}

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, tenant int, seq uint64, parent int32) int32 {
	return t.open(name, tenant, seq, parent, false)
}

// open is begin, optionally recording while off: a long-lived tick stream's
// request span starts before the traced phase and is clipped to it later.
func (t *tracer) open(name string, tenant int, seq uint64, parent int32, always bool) int32 {
	if t == nil {
		return -1
	}
	now := mono()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on && !always || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Tenant: int32(tenant), Seq: seq, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span i, recording the rows it carried.
func (t *tracer) end(i int32, rows int) {
	if t == nil || i < 0 {
		return
	}
	now := mono()
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Rows = int32(rows)
	t.mu.Unlock()
}

// add records an already-timed span (the single-goroutine replays time
// their calls themselves and add them in bulk).
func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) capture(m map[string]*strings.Builder, tenant string, p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	b := m[tenant]
	if b == nil {
		b = &strings.Builder{}
		m[tenant] = b
	}
	if room := t.capBytes - b.Len(); room > 0 {
		if len(p) > room {
			p = p[:room]
		}
		b.Write(p)
	}
}

// wrapHandler puts spans around every HTTP request and, for tick streams,
// around every request-body read and every ack write or flush.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant, ticks := tickTenant(r)
		name := "http " + r.Method
		if ticks {
			name = "http ticks"
		}
		sp := t.open(name, tenantIndex(tenant), 0, -1, ticks)
		if ticks {
			r.Body = &tracedBody{ReadCloser: r.Body, t: t, parent: sp, tenant: tenant}
			w = &tracedWriter{ResponseWriter: w, t: t, parent: sp, tenant: tenant}
		}
		h.ServeHTTP(w, r)
		t.end(sp, 0)
	})
}

func tickTenant(r *http.Request) (string, bool) {
	p := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	if id, ok := strings.CutSuffix(p, "/ticks"); ok && r.Method == http.MethodPost {
		return id, true
	}
	return "", false
}

type tracedBody struct {
	io.ReadCloser
	t      *tracer
	parent int32
	tenant string
}

func (b *tracedBody) Read(p []byte) (int, error) {
	sp := b.t.begin("http.body_read", tenantIndex(b.tenant), 0, b.parent)
	n, err := b.ReadCloser.Read(p)
	b.t.end(sp, 0)
	if n > 0 {
		b.t.capture(b.t.in, b.tenant, p[:n])
	}
	return n, err
}

// tracedWriter spans the handler's ack writes and flushes. Unwrap lets
// http.ResponseController reach the connection's full-duplex switch.
type tracedWriter struct {
	http.ResponseWriter
	t      *tracer
	parent int32
	tenant string
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	sp := w.t.begin("http.ack_write", tenantIndex(w.tenant), 0, w.parent)
	n, err := w.ResponseWriter.Write(p)
	w.t.end(sp, 0)
	if n > 0 {
		w.t.capture(w.t.out, w.tenant, p[:n])
	}
	return n, err
}

func (w *tracedWriter) FlushError() error {
	sp := w.t.begin("http.ack_flush", tenantIndex(w.tenant), 0, w.parent)
	err := http.NewResponseController(w.ResponseWriter).Flush()
	w.t.end(sp, 0)
	return err
}

func (w *tracedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// writeSpans writes every recorded span as one JSON line each.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansNamed returns copies of the recorded spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// children returns, per parent index, the intervals of its child spans.
func (t *tracer) children() map[int32][]interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[int32][]interval{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			m[s.Parent] = append(m[s.Parent], interval{s.Start, s.End})
		}
	}
	return m
}
