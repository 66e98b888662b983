package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/mirror"
	"repro/internal/registry"
)

// Span names, one per layer boundary the benchmark can see from outside
// the program. The depth orders layers outside-in: a span's parent is the
// innermost open span of a shallower layer, so concurrent siblings (the
// store put and the analytics tee under one upload) never nest in each
// other.
const (
	spanOp         = "op"                   // one benchmark op, client side
	spanCrawler    = "crawler"              // study stage
	spanPipeline   = "pipeline"             // study stage (fused download+walk)
	spanAnalyzer   = "analyzer"             // study stage (assembly, inside pipeline)
	spanReport     = "report"               // study stage
	spanHTTPFront  = "http.front"           // client -> first server, request to body close
	spanRouter     = "router"               // mirror handler on the router server
	spanCacheGet   = "cache.get"            // router cache's backing store, open until reader close
	spanCachePut   = "cache.put"            // router cache admission
	spanFanout     = "fanout"               // mirror.Origin call, open until reader close
	spanHTTPNode   = "http.node"            // fan-out -> node, request to body close
	spanRegistry   = "registry"             // registry handler on a node / the single registry
	spanStoreGet   = "store.get"            // blobstore.Store.Get, open until reader close
	spanStorePut   = "store.put"            // blobstore.Store Put/PutVerified/PutStream
	spanBlobStream = "analytics.blobstream" // registry.Ingest.BlobStream
	spanManifest   = "analytics.manifest"   // registry.Ingest.ManifestTagged
)

var spanDepth = map[string]int{
	spanOp:         0,
	spanCrawler:    1,
	spanPipeline:   1,
	spanReport:     1,
	spanAnalyzer:   2,
	spanHTTPFront:  3,
	spanRouter:     4,
	spanCacheGet:   5,
	spanCachePut:   5,
	spanFanout:     5,
	spanHTTPNode:   6,
	spanRegistry:   7,
	spanStoreGet:   8,
	spanStorePut:   8,
	spanBlobStream: 8,
	spanManifest:   8,
}

// span is one timed interval. Times are nanoseconds since the tracer was
// created; Parent indexes the tracer's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"` // 0 = warm-up, 1.. = traced rounds
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
}

// tracer records spans in memory. The traced run keeps one op in flight,
// so every span that starts while an op is open belongs to it; no context
// is threaded through the program under test. A nil tracer records
// nothing, which is how the untraced stacks run the shared op code.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	open   []int // indices of open spans in start order
	round  int
	op     int
	active bool // spans are recorded only inside a round
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// startRound opens recording for round r (0 = warm-up).
func (t *tracer) startRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round, t.active = r, true
	t.mu.Unlock()
}

// endRound stops recording; spans still open are closed at the boundary so
// a late handler exit cannot leak into the next round.
func (t *tracer) endRound() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	for _, i := range t.open {
		t.spans[i].End = now
	}
	t.open = t.open[:0]
	t.active = false
	t.mu.Unlock()
}

// begin opens a span and returns its handle (-1 when not recording).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	depth := spanDepth[name]
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return -1
	}
	parent := -1
	for k := len(t.open) - 1; k >= 0; k-- {
		if spanDepth[t.spans[t.open[k]].Name] < depth {
			parent = t.open[k]
			break
		}
	}
	id := len(t.spans)
	if name == spanOp {
		t.op++
	}
	t.spans = append(t.spans, span{Name: name, Round: t.round, Op: t.op, Parent: parent, Start: now, End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes a span. Ending twice, or ending a span that endRound already
// closed, is a no-op.
func (t *tracer) end(id int) { t.endWith(id, 0, 0) }

func (t *tracer) endWith(id int, bytes int64, status int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == id {
			t.open = append(t.open[:k], t.open[k+1:]...)
			s := &t.spans[id]
			s.End, s.Bytes, s.Status = now, bytes, status
			return
		}
	}
}

// add records a closed span of known duration that ended now: the study's
// assembly phase is reported by pipeline.Run rather than callable alone.
func (t *tracer) add(name string, d time.Duration) {
	if id := t.begin(name); id >= 0 {
		t.mu.Lock()
		t.spans[id].Start -= int64(d)
		t.mu.Unlock()
		t.end(id)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// roundSpans returns the spans of one round with parents re-indexed into
// the returned list, the form the trace file holds.
func roundSpans(spans []span, round int) []span {
	index := make(map[int]int)
	var out []span
	for i, s := range spans {
		if s.Round == round {
			index[i] = len(out)
			out = append(out, s)
		}
	}
	for i := range out {
		if p, ok := index[out[i].Parent]; ok {
			out[i].Parent = p
		} else {
			out[i].Parent = -1
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (children may overlap each other
// and may outlive the parent, so they are clipped and unioned).
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.s, edge), min(k.e, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerSums aggregates one round selection of a span list by span name.
type layerSums struct {
	Count  map[string]int64
	SelfNs map[string]int64
	DurNs  map[string]int64
	Bytes  map[string]int64
}

// sumLayers aggregates the spans whose round satisfies keep.
func sumLayers(spans []span, keep func(round int) bool) layerSums {
	out := layerSums{
		Count: map[string]int64{}, SelfNs: map[string]int64{},
		DurNs: map[string]int64{}, Bytes: map[string]int64{},
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if !keep(s.Round) {
			continue
		}
		out.Count[s.Name]++
		out.SelfNs[s.Name] += self[i]
		out.DurNs[s.Name] += s.End - s.Start
		out.Bytes[s.Name] += s.Bytes
	}
	return out
}

// --- decorators -----------------------------------------------------------

// handler wraps an http.Handler in a span carrying the response status.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := t.begin(name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() { t.endWith(id, sw.n, sw.status) }()
		h.ServeHTTP(sw, req)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// ReadFrom keeps the server's io.ReaderFrom fast path reachable through
// the wrapper.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	n, err := io.Copy(w.ResponseWriter, r)
	w.n += n
	return n, err
}

// transport wraps a RoundTripper: the span runs from the request until the
// response body is closed, which is the hop as the caller sees it.
func (t *tracer) transport(name string, base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, name: name, base: base}
}

type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.begin(tt.name)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.endWith(id, 0, -1)
		return nil, err
	}
	resp.Body = &spanCloser{ReadCloser: resp.Body, t: tt.t, id: id, status: resp.StatusCode}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport, which server shutdown relies on.
func (tt *tracedTransport) CloseIdleConnections() {
	if ci, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// spanCloser ends a span when the wrapped reader is closed.
type spanCloser struct {
	io.ReadCloser
	t      *tracer
	id     int
	n      int64
	status int
}

func (s *spanCloser) Read(p []byte) (int, error) {
	n, err := s.ReadCloser.Read(p)
	s.n += int64(n)
	return n, err
}

func (s *spanCloser) Close() error {
	err := s.ReadCloser.Close()
	s.t.endWith(s.id, s.n, s.status)
	return err
}

// origin wraps the router's mirror.Origin (the replica fan-out).
func (t *tracer) origin(o mirror.Origin) mirror.Origin { return &tracedOrigin{t: t, o: o} }

type tracedOrigin struct {
	t *tracer
	o mirror.Origin
}

func (to *tracedOrigin) TagsContext(ctx context.Context, name string) ([]string, error) {
	defer to.t.end(to.t.begin(spanFanout))
	return to.o.TagsContext(ctx, name)
}

func (to *tracedOrigin) ManifestRawContext(ctx context.Context, name, ref string) ([]byte, digest.Digest, error) {
	defer to.t.end(to.t.begin(spanFanout))
	return to.o.ManifestRawContext(ctx, name, ref)
}

func (to *tracedOrigin) BlobContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	id := to.t.begin(spanFanout)
	rc, size, err := to.o.BlobContext(ctx, name, d)
	if err != nil {
		to.t.end(id)
		return nil, 0, err
	}
	return &spanCloser{ReadCloser: rc, t: to.t, id: id}, size, nil
}

func (to *tracedOrigin) BlobStatContext(ctx context.Context, name string, d digest.Digest) (int64, error) {
	defer to.t.end(to.t.begin(spanFanout))
	return to.o.BlobStatContext(ctx, name, d)
}

// store wraps a blobstore.Store; get and put name the spans, so the
// router cache's backing store and a node's store stay distinct layers.
func (t *tracer) store(get, put string, s blobstore.Store) blobstore.Store {
	return &tracedStore{Store: s, t: t, get: get, put: put}
}

type tracedStore struct {
	blobstore.Store
	t        *tracer
	get, put string
}

func (ts *tracedStore) Put(content []byte) (digest.Digest, error) {
	id := ts.t.begin(ts.put)
	d, err := ts.Store.Put(content)
	ts.t.endWith(id, int64(len(content)), 0)
	return d, err
}

func (ts *tracedStore) PutVerified(want digest.Digest, content []byte) error {
	id := ts.t.begin(ts.put)
	err := ts.Store.PutVerified(want, content)
	ts.t.endWith(id, int64(len(content)), 0)
	return err
}

func (ts *tracedStore) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	id := ts.t.begin(ts.put)
	n, err := ts.Store.PutStream(want, r)
	ts.t.endWith(id, n, 0)
	return n, err
}

func (ts *tracedStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	id := ts.t.begin(ts.get)
	rc, size, err := ts.Store.Get(d)
	if err != nil {
		ts.t.end(id)
		return nil, 0, err
	}
	return &spanCloser{ReadCloser: rc, t: ts.t, id: id}, size, nil
}

// ingest wraps the registry's write-path observer.
func (t *tracer) ingest(h registry.Ingest) registry.Ingest { return &tracedIngest{Ingest: h, t: t} }

type tracedIngest struct {
	registry.Ingest
	t *tracer
}

func (ti *tracedIngest) BlobStream(d digest.Digest, r io.Reader) {
	defer ti.t.end(ti.t.begin(spanBlobStream))
	ti.Ingest.BlobStream(d, r)
}

func (ti *tracedIngest) ManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest) {
	defer ti.t.end(ti.t.begin(spanManifest))
	ti.Ingest.ManifestTagged(repo, tag, d, m)
}
