package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying a traced request's identity across HTTP hops. Only the
// benchmark's own wrappers read and write them; a request without them is
// passed through untouched.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay no bookkeeping.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a root span.
func (t *tracer) timed(name string, req int64, f func()) {
	if t == nil {
		f()
		return
	}
	id, start := t.newID(), t.now()
	f()
	t.add(span{Name: name, ID: id, Req: req, Start: start, End: t.now()})
}

// spanRef identifies the span that is handling a request, carried in the
// request context from a wrapped handler to the wrapped transport.
type spanRef struct{ req, span int64 }

type spanKey struct{}

func refFromHeader(h http.Header) (spanRef, bool) {
	req, err1 := strconv.ParseInt(h.Get(headerReq), 10, 64)
	sp, err2 := strconv.ParseInt(h.Get(headerSpan), 10, 64)
	return spanRef{req, sp}, err1 == nil && err2 == nil
}

func setRef(h http.Header, ref spanRef) {
	h.Set(headerReq, strconv.FormatInt(ref.req, 10))
	h.Set(headerSpan, strconv.FormatInt(ref.span, 10))
}

// opOf names the operation a request performs, for span names.
func opOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/query":
		return "query"
	case strings.HasPrefix(r.URL.Path, "/users/") && (r.Method == http.MethodPut || r.Method == http.MethodDelete):
		return "mutate"
	case strings.HasPrefix(r.URL.Path, "/users/"):
		return "neighbors"
	case strings.HasSuffix(r.URL.Path, "/build"):
		return "build"
	}
	return "other"
}

// wrapHandler records a "<layer>.<op>" span around every traced request
// the handler serves, and hands the span to downstream calls through the
// request context.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := refFromHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.newID(), t.now()
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{req: ref.req, span: id})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.add(span{Name: layer + "." + opOf(r), ID: id, Parent: ref.span, Req: ref.req, Start: start, End: t.now()})
	})
}

// tracingTransport records a "router.subrequest" span for every shard
// call the router makes on behalf of a traced request, from the call to
// the close of the response body, and forwards the span to the shard.
type tracingTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return tt.inner.RoundTrip(req)
	}
	id, start := tt.t.newID(), tt.t.now()
	out := req.Clone(req.Context())
	setRef(out.Header, spanRef{req: ref.req, span: id})
	s := span{Name: "router.subrequest", ID: id, Parent: ref.span, Req: ref.req, Start: start}
	resp, err := tt.inner.RoundTrip(out)
	if err != nil {
		s.End = tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = tt.t.now()
		tt.t.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// analysis indexes a run's spans for the per-layer metrics.
type analysis struct {
	byName   map[string][]span
	children map[int64][]span
}

func (t *tracer) analyze() analysis {
	a := analysis{byName: map[string][]span{}, children: map[int64][]span{}}
	if t == nil {
		return a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		a.byName[s.Name] = append(a.byName[s.Name], s)
		if s.Parent != 0 {
			a.children[s.Parent] = append(a.children[s.Parent], s)
		}
	}
	return a
}

// durationsMS returns the durations of every span named name, in ms.
func (a analysis) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(a.byName[name]))
	for _, s := range a.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// self is a span's duration minus the part of it its children cover.
func (a analysis) self(s span) time.Duration {
	kids := a.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - time.Duration(covered)
}

// write saves every span as one JSON line to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
