// Package registry implements a Docker Registry HTTP API v2 server and a
// typed client — the substrate the paper's downloader speaks to (§III-B:
// "we implement our own downloader, which calls the Docker registry API
// directly to download manifests and image layers in parallel").
//
// The server supports the endpoints the study needs:
//
//	GET  /v2/                          API version check
//	GET  /v2/<name>/tags/list          tag enumeration
//	GET  /v2/<name>/manifests/<ref>    manifest by tag or digest (+HEAD)
//	GET  /v2/<name>/blobs/<digest>     layer/config blobs (+HEAD)
//
// and the push and delete endpoints in push.go. Route, WriteManifest and
// WriteBlob are the read dialect itself: the pull-through mirror (and the
// cluster router, which is one) answers through them too, so every tier
// a client may reach answers a request the same way.
//
// Repositories can be marked private, in which case requests without a
// bearer token receive 401 + WWW-Authenticate, reproducing the 13% of the
// paper's download failures that were auth-gated.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
)

// Errors surfaced by the server's repository model.
var (
	ErrRepoNotFound = errors.New("registry: repository not found")
	ErrTagNotFound  = errors.New("registry: tag not found")
)

// repo is the server-side state of one repository.
type repo struct {
	private bool
	tags    map[string]digest.Digest // tag -> manifest digest
}

// Stats counts server-side activity, useful for verifying downloader
// behaviour (e.g. that shared layers are fetched only once).
type Stats struct {
	ManifestGets   int64
	BlobGets       int64
	BlobBytes      int64
	AuthDenied     int64
	BlobPushes     int64
	ManifestPushes int64
	TagDeletes     int64
}

// Registry is the in-process registry server. It implements http.Handler.
type Registry struct {
	blobs blobstore.Store

	mu    sync.RWMutex
	repos map[string]*repo

	// ingest holds the optional write-path observer (see SetIngest);
	// atomic so the hot push path reads it without taking mu.
	ingest atomic.Value

	manifestGets   atomic.Int64
	blobGets       atomic.Int64
	blobBytes      atomic.Int64
	authDenied     atomic.Int64
	blobPushes     atomic.Int64
	manifestPushes atomic.Int64
	tagDeletes     atomic.Int64
}

// New creates a Registry backed by the given blob store.
func New(blobs blobstore.Store) *Registry {
	return &Registry{blobs: blobs, repos: make(map[string]*repo)}
}

// Blobs exposes the backing store (used by materializers to upload layers
// in bulk without HTTP overhead).
func (r *Registry) Blobs() blobstore.Store { return r.blobs }

// CreateRepo registers a repository. Creating an existing repo only
// updates its privacy flag.
func (r *Registry) CreateRepo(name string, private bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rp, ok := r.repos[name]; ok {
		rp.private = private
		return
	}
	r.repos[name] = &repo{private: private, tags: make(map[string]digest.Digest)}
}

// PushManifest stores the manifest blob and points the tag at it.
func (r *Registry) PushManifest(name, tag string, m *manifest.Manifest) (digest.Digest, error) {
	raw, err := m.Marshal()
	if err != nil {
		return "", err
	}
	d, err := r.blobs.Put(raw)
	if err != nil {
		return "", fmt.Errorf("registry: storing manifest: %w", err)
	}
	r.mu.Lock()
	rp, ok := r.repos[name]
	if !ok {
		r.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrRepoNotFound, name)
	}
	rp.tags[tag] = d
	r.mu.Unlock()
	r.notifyManifestTagged(name, tag, d, m)
	return d, nil
}

// PushBlob stores arbitrary blob content (a layer tarball).
func (r *Registry) PushBlob(content []byte) (digest.Digest, error) {
	return r.blobs.Put(content)
}

// SetTag points a tag at an already-stored manifest blob, used when
// restoring registry state from disk. The ingest hook is notified with a
// nil manifest (the caller never parsed one); implementations reload it
// from the store.
func (r *Registry) SetTag(name, tag string, d digest.Digest) error {
	if !r.blobs.Has(d) {
		return fmt.Errorf("registry: manifest blob %s not stored", d.Short())
	}
	r.mu.Lock()
	rp, ok := r.repos[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRepoNotFound, name)
	}
	rp.tags[tag] = d
	r.mu.Unlock()
	r.notifyManifestTagged(name, tag, d, nil)
	return nil
}

// Repos returns all repository names (sorted lexically not guaranteed).
func (r *Registry) Repos() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.repos))
	for name := range r.repos {
		out = append(out, name)
	}
	return out
}

// Tags returns the tags of a repository.
func (r *Registry) Tags(name string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rp, ok := r.repos[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRepoNotFound, name)
	}
	out := make([]string, 0, len(rp.tags))
	for t := range rp.tags {
		out = append(out, t)
	}
	return out, nil
}

// ResolveTag returns the manifest digest a tag points at.
func (r *Registry) ResolveTag(name, tag string) (digest.Digest, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rp, ok := r.repos[name]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrRepoNotFound, name)
	}
	d, ok := rp.tags[tag]
	if !ok {
		return "", fmt.Errorf("%w: %s:%s", ErrTagNotFound, name, tag)
	}
	return d, nil
}

// Stats returns a snapshot of server counters.
func (r *Registry) Stats() Stats {
	return Stats{
		ManifestGets:   r.manifestGets.Load(),
		BlobGets:       r.blobGets.Load(),
		BlobBytes:      r.blobBytes.Load(),
		AuthDenied:     r.authDenied.Load(),
		BlobPushes:     r.blobPushes.Load(),
		ManifestPushes: r.manifestPushes.Load(),
		TagDeletes:     r.tagDeletes.Load(),
	}
}

// ServeHTTP implements the Registry HTTP API v2 surface: Route's read
// and push endpoints behind one repository lookup and one authorization,
// plus the catalog.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	// The catalog endpoint modern registries expose, served for Registry
	// v2 clients that enumerate repositories by it. Docker Hub did NOT
	// offer it at crawl time — which is why the paper had to scrape the
	// web search (§III-A), and why the crawler enumerates through the
	// search API only.
	if req.URL.Path == "/v2/_catalog" {
		r.serveCatalog(w, req)
		return
	}
	name, kind, ref, ok := Route(w, req)
	if !ok {
		return
	}
	r.mu.RLock()
	rp, ok := r.repos[name]
	r.mu.RUnlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "NAME_UNKNOWN", "repository name not known to registry")
		return
	}
	if rp.private && !authorized(req) {
		r.authDenied.Add(1)
		w.Header().Set("WWW-Authenticate", `Bearer realm="synthetic",service="registry"`)
		WriteError(w, http.StatusUnauthorized, "UNAUTHORIZED", "authentication required")
		return
	}

	switch {
	case kind == "tags":
		r.serveTags(w, name, rp)
	case kind == "uploads":
		r.serveBlobUpload(w, req, name)
	case kind == "manifests" && req.Method == http.MethodPut:
		r.serveManifestPut(w, req, name, rp, ref)
	case kind == "manifests" && req.Method == http.MethodDelete:
		r.serveManifestDelete(w, name, rp, ref)
	case kind == "manifests":
		r.serveManifest(w, req, rp, ref)
	case kind == "blobs":
		r.serveBlob(w, req, ref)
	}
}

// Route is the Registry v2 path split every front shares. It answers the
// /v2/ ping itself and splits the rest into name, kind and ref:
//
//	<name>/tags/list           kind "tags"
//	<name>/blobs/uploads/      kind "uploads" (POST only)
//	<name>/manifests/<ref>     kind "manifests"
//	<name>/blobs/<ref>         kind "blobs"
//
// where <name> may contain slashes (user/repo). It reports false once it
// has answered the request itself: the ping, or 404 for any other path.
func Route(w http.ResponseWriter, req *http.Request) (name, kind, ref string, ok bool) {
	if req.URL.Path == "/v2/" || req.URL.Path == "/v2" {
		w.Header().Set("Docker-Distribution-API-Version", "registry/2.0")
		fmt.Fprint(w, "{}")
		return "", "", "", false
	}
	path := strings.TrimPrefix(req.URL.Path, "/v2/")
	if name, ok := strings.CutSuffix(path, "/tags/list"); ok {
		return name, "tags", "", true
	}
	if name, ok := strings.CutSuffix(path, "/blobs/uploads/"); ok && req.Method == http.MethodPost {
		return name, "uploads", "", true
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		if j := strings.LastIndexByte(path[:i], '/'); j >= 0 {
			if kind := path[j+1 : i]; kind == "manifests" || kind == "blobs" {
				return path[:j], kind, path[i+1:], true
			}
		}
	}
	WriteError(w, http.StatusNotFound, "UNSUPPORTED", "unrecognized registry path")
	return "", "", "", false
}

// serveCatalog implements GET /v2/_catalog with the standard n/last
// pagination (Link header omitted; the JSON carries no continuation, so
// clients page via ?last=).
func (r *Registry) serveCatalog(w http.ResponseWriter, req *http.Request) {
	n := 100
	if s := req.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > 10_000 {
			WriteError(w, http.StatusBadRequest, "PAGINATION_NUMBER_INVALID", "bad n")
			return
		}
		n = v
	}
	last := req.URL.Query().Get("last")

	names := r.Repos()
	sort.Strings(names)
	start := 0
	if last != "" {
		start = sort.SearchStrings(names, last)
		if start < len(names) && names[start] == last {
			start++
		}
	}
	end := start + n
	if end > len(names) {
		end = len(names)
	}
	writeJSON(w, map[string]any{"repositories": names[start:end]})
}

// authorized accepts any non-empty bearer token; the synthetic study only
// needs the 401 behaviour, not real token validation.
func authorized(req *http.Request) bool {
	h := req.Header.Get("Authorization")
	return strings.HasPrefix(h, "Bearer ") && len(h) > len("Bearer ")
}

func (r *Registry) serveTags(w http.ResponseWriter, name string, rp *repo) {
	r.mu.RLock()
	tags := make([]string, 0, len(rp.tags))
	for t := range rp.tags {
		tags = append(tags, t)
	}
	r.mu.RUnlock()
	writeJSON(w, map[string]any{"name": name, "tags": tags})
}

func (r *Registry) serveManifest(w http.ResponseWriter, req *http.Request, rp *repo, ref string) {
	var d digest.Digest
	if parsed, err := digest.Parse(ref); err == nil {
		d = parsed
	} else {
		r.mu.RLock()
		tagged, ok := rp.tags[ref]
		r.mu.RUnlock()
		if !ok {
			WriteError(w, http.StatusNotFound, "MANIFEST_UNKNOWN", "manifest unknown")
			return
		}
		d = tagged
	}
	rc, size, err := r.blobs.Get(d)
	if errors.Is(err, blobstore.ErrNotFound) {
		WriteError(w, http.StatusNotFound, "MANIFEST_UNKNOWN", "manifest blob missing")
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "UNKNOWN", "storage backend error")
		return
	}
	defer rc.Close()
	if req.Method != http.MethodHead {
		r.manifestGets.Add(1)
	}
	WriteManifest(w, req, d, size, rc)
}

// WriteManifest answers a manifest GET or HEAD for d, size bytes long:
// its headers and, for a GET, the stored bytes verbatim, so the client's
// digest check holds whichever front answers.
func WriteManifest(w http.ResponseWriter, req *http.Request, d digest.Digest, size int64, body io.Reader) {
	w.Header().Set("Content-Type", manifest.MediaTypeManifest)
	w.Header().Set("Docker-Content-Digest", d.String())
	w.Header().Set("Content-Length", fmt.Sprint(size))
	if req.Method != http.MethodHead {
		blobstore.CopyBody(w, body)
	}
}

// serveManifestDelete implements DELETE /v2/<name>/manifests/<ref>. A
// digest ref untags every tag pointing at that manifest; a tag ref untags
// just that tag. Blobs are not removed, and the analytics service keeps
// walked layers cached so a delete/re-push cycle needs no re-walk. Responds 202 Accepted, like real
// registries.
func (r *Registry) serveManifestDelete(w http.ResponseWriter, name string, rp *repo, ref string) {
	type untagged struct {
		tag string
		d   digest.Digest
	}
	var removals []untagged
	r.mu.Lock()
	if d, err := digest.Parse(ref); err == nil {
		for t, td := range rp.tags {
			if td == d {
				removals = append(removals, untagged{t, td})
				delete(rp.tags, t)
			}
		}
	} else if d, ok := rp.tags[ref]; ok {
		removals = append(removals, untagged{ref, d})
		delete(rp.tags, ref)
	}
	r.mu.Unlock()
	if len(removals) == 0 {
		WriteError(w, http.StatusNotFound, "MANIFEST_UNKNOWN", "manifest or tag unknown")
		return
	}
	// Deterministic hook order regardless of tag-map iteration.
	sort.Slice(removals, func(i, j int) bool { return removals[i].tag < removals[j].tag })
	r.tagDeletes.Add(int64(len(removals)))
	if hook := r.ingestHook(); hook != nil {
		for _, rm := range removals {
			hook.TagDeleted(name, rm.tag, rm.d)
		}
	}
	w.WriteHeader(http.StatusAccepted)
}

func (r *Registry) serveBlob(w http.ResponseWriter, req *http.Request, ref string) {
	d, err := digest.Parse(ref)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "DIGEST_INVALID", "invalid digest")
		return
	}
	// HEAD is answered from Stat: opening the blob is not free on every
	// backend (dedupstore starts reconstructing it), and a push probes
	// every blob of the image this way first.
	var rc io.ReadCloser
	var size int64
	if req.Method == http.MethodHead {
		size, err = r.blobs.Stat(d)
	} else {
		rc, size, err = r.blobs.Get(d)
	}
	if errors.Is(err, blobstore.ErrNotFound) {
		WriteError(w, http.StatusNotFound, "BLOB_UNKNOWN", "blob unknown to registry")
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "UNKNOWN", "storage backend error")
		return
	}
	if rc != nil {
		defer rc.Close()
	}
	if body := WriteBlob(w, req, d, size, rc); body != nil {
		r.blobGets.Add(1)
		n, _ := blobstore.CopyBody(w, body)
		r.blobBytes.Add(n)
	}
}

// WriteBlob answers a blob GET or HEAD for d, a blob of size bytes (-1
// when unknown), and returns the reader the caller copies the response
// body from, or nil when the response has none. body is the blob from its
// first byte (nil for HEAD). Every front answers the same way: Accept-
// Ranges, a single range as 206 or 416 (range support lets interrupted
// pulls resume — over a month-long crawl re-transferring multi-GB layers
// from zero is real money), a blob of unknown size served whole without a
// length, and a HEAD answering the headers its GET would. A range's
// skipped prefix is seeked when body can seek and read otherwise, so a
// reader that tees into a cache still sees every byte. A whole blob is
// returned as body itself, to be copied through EOF rather than to the
// byte count: stores that tee the stream into a cache (the mirror's fill,
// the dedup backend's reconstruction cache) only complete admission when
// the consumer observes end-of-stream.
func WriteBlob(w http.ResponseWriter, req *http.Request, d digest.Digest, size int64, body io.Reader) io.Reader {
	w.Header().Set("Docker-Content-Digest", d.String())
	w.Header().Set("Accept-Ranges", "bytes")
	start, length, ok := parseRange(req.Header.Get("Range"), size)
	if !ok {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		WriteError(w, http.StatusRequestedRangeNotSatisfiable, "RANGE_INVALID", "unsatisfiable range")
		return nil
	}
	partial := start != 0 || length != size
	w.Header().Set("Content-Type", "application/octet-stream")
	if length >= 0 {
		w.Header().Set("Content-Length", fmt.Sprint(length))
	}
	if partial {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size))
		w.WriteHeader(http.StatusPartialContent)
	}
	if req.Method == http.MethodHead || start > 0 && discard(body, start) != nil {
		return nil
	}
	if partial {
		return io.LimitReader(body, length)
	}
	return body
}

// parseRange handles the single-range form "bytes=start-[end]"; an absent
// header means the whole blob, and so does a negative (unknown) size: a
// server may ignore Range. Returns ok=false for unsatisfiable ranges.
func parseRange(h string, size int64) (start, length int64, ok bool) {
	if h == "" || size < 0 {
		return 0, size, true
	}
	if !strings.HasPrefix(h, "bytes=") || strings.Contains(h, ",") {
		return 0, size, true // unsupported form: serve the whole blob
	}
	spec := strings.TrimPrefix(h, "bytes=")
	dash := strings.IndexByte(spec, '-')
	if dash <= 0 { // suffix ranges ("-N") unsupported: whole blob
		return 0, size, true
	}
	s, err := strconv.ParseInt(spec[:dash], 10, 64)
	if err != nil || s < 0 {
		return 0, 0, false
	}
	if s >= size {
		return 0, 0, false
	}
	end := size - 1
	if rest := spec[dash+1:]; rest != "" {
		e, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || e < s {
			return 0, 0, false
		}
		if e < end {
			end = e
		}
	}
	return s, end - s + 1, true
}

// discard skips n bytes of a reader, seeking when possible.
func discard(r io.Reader, n int64) error {
	if s, ok := r.(io.Seeker); ok {
		_, err := s.Seek(n, io.SeekStart)
		return err
	}
	_, err := io.CopyN(io.Discard, r, n)
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// errorBody matches the registry v2 error envelope.
type errorBody struct {
	Errors []struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"errors"`
}

// WriteError writes the registry v2 error envelope; exported for the
// mirror, which speaks the same wire dialect.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Errors = append(body.Errors, struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}{code, msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
