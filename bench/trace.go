package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries a client's root span id to the server-side wrapper,
// which records its own span as that root's child.
const spanHeader = "X-Bench-Span"

// span is one traced interval, in ns since the tracer's epoch.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory; they are written out
// when the run ends. The benchmark records spans only around its own calls
// into the stack: client.<op> around each HTTP round trip, and
// httpserve.<op> around the frontend's ServeHTTP.
type tracer struct {
	workload string
	epoch    time.Time
	ids      atomic.Int64
	non2xx   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (tr *tracer) newID() int64 { return tr.ids.Add(1) }

func (tr *tracer) record(id, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Workload: tr.workload,
		Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap puts a span around h for every request that carries a root span id,
// and counts non-2xx answers to such requests.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		tr.record(tr.newID(), parent, "httpserve."+strings.TrimPrefix(r.URL.Path, "/"), start, time.Now())
		if sw.code/100 != 2 {
			tr.non2xx.Add(1)
		}
	})
}

// selfTimes returns every span's self time in µs, grouped by span name: its
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		at := s.Start // covered up to here
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}
