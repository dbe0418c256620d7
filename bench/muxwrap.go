package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// routeStats is what the wrapper saw on one URL path.
type routeStats struct {
	Requests  int
	ReqBytes  int64
	RespBytes int64
	Latency   []time.Duration // handler entry to return, one per request
}

// muxWrap measures an http.Handler from outside: it counts requests and
// wire body bytes per path, times each request, and (traced runs)
// records one span per request. It is installed only in traced passes
// and probes; the untraced run serves the bare handler.
type muxWrap struct {
	next http.Handler
	rec  *recorder
	// parent returns the span (and group) new request spans hang under.
	parent func() (id, group int)

	mu     sync.Mutex
	routes map[string]*routeStats
}

func newMuxWrap(next http.Handler, rec *recorder, parent func() (int, int)) *muxWrap {
	return &muxWrap{next: next, rec: rec, parent: parent, routes: make(map[string]*routeStats)}
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush keeps server-sent-event streams working through the wrapper.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *muxWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent, group int
	if m.parent != nil {
		parent, group = m.parent()
	}
	id := m.rec.begin("http", r.Method+" "+r.URL.Path, parent, group)
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	m.next.ServeHTTP(cw, r)
	d := time.Since(t0)
	m.rec.end(id)

	key := routeKey(r.URL.Path)
	m.mu.Lock()
	rs := m.routes[key]
	if rs == nil {
		rs = &routeStats{}
		m.routes[key] = rs
	}
	rs.Requests++
	rs.ReqBytes += body.n
	rs.RespBytes += cw.n
	rs.Latency = append(rs.Latency, d)
	m.mu.Unlock()
}

// routeKey folds job ids (64 hex digits) out of a path so every job's
// requests land on one route: /v1/jobs/<id>/events -> /v1/jobs/*/events.
func routeKey(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if len(p) == 64 && strings.Trim(p, "0123456789abcdef") == "" {
			parts[i] = "*"
		}
	}
	return strings.Join(parts, "/")
}

// route returns a copy of one path's counters (zero value if unseen).
func (m *muxWrap) route(path string) routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rs := m.routes[path]; rs != nil {
		out := *rs
		out.Latency = append([]time.Duration(nil), rs.Latency...)
		return out
	}
	return routeStats{}
}

// totals sums requests and wire bytes over every path.
func (m *muxWrap) totals() (requests int, wireBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rs := range m.routes {
		requests += rs.Requests
		wireBytes += rs.ReqBytes + rs.RespBytes
	}
	return requests, wireBytes
}
