// Package mirror implements a pull-through caching registry: a Docker
// Registry HTTP API v2 front that serves manifests and blobs out of a
// byte-budgeted cache, filling misses from an origin registry while the
// first client streams. This is the serving-side complement to the paper's
// observation (§IV-B) that Docker Hub traffic is extremely skewed — a
// small cache in front of the registry absorbs the bulk of a
// popularity-weighted pull trace.
//
// Caching policy:
//
//   - Blobs are content-addressed and immutable, so any blob response may
//     be cached and re-served forever (until evicted).
//   - Manifests fetched *by digest* are likewise immutable and cached.
//   - Manifests fetched *by tag* are mutable pointers: the mirror always
//     revalidates against the origin, re-serves the exact wire bytes, and
//     opportunistically admits them under their digest so later by-digest
//     fetches hit.
//   - Origin 404s are negative-cached (bounded) so repeated lookups of
//     absent content do not hammer the origin.
package mirror

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
)

// Origin is the upstream a Mirror fills misses from. registry.Client is
// the canonical implementation (one origin registry over HTTP); the
// cluster router substitutes a replica fan-out that tries each owner node
// in turn. Implementations must return the registry client's typed errors
// (registry.ErrNotFound, registry.ErrUnauthorized, *registry.ThrottleError)
// so the mirror's error envelope and negative caching keep working.
type Origin interface {
	TagsContext(ctx context.Context, name string) ([]string, error)
	ManifestRawContext(ctx context.Context, name, ref string) ([]byte, digest.Digest, error)
	BlobContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error)
	BlobStatContext(ctx context.Context, name string, d digest.Digest) (int64, error)
}

var _ Origin = (*registry.Client)(nil)

// Mirror is the pull-through caching registry front. It implements
// http.Handler and speaks the same /v2/ dialect as internal/registry.
type Mirror struct {
	Origin Origin
	Cache  *cache.Cache
}

// New assembles a mirror over an origin and a cache.
func New(origin Origin, c *cache.Cache) *Mirror {
	return &Mirror{Origin: origin, Cache: c}
}

// ServeHTTP routes the v2 API surface plus a /stats introspection
// endpoint exposing cache counters as JSON.
func (m *Mirror) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/stats" {
		m.serveStats(w)
		return
	}
	if req.URL.Path == "/v2/" || req.URL.Path == "/v2" {
		w.Header().Set("Docker-Distribution-API-Version", "registry/2.0")
		fmt.Fprint(w, "{}")
		return
	}
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		registry.WriteError(w, http.StatusMethodNotAllowed, "UNSUPPORTED", "mirror is read-only")
		return
	}
	path := strings.TrimPrefix(req.URL.Path, "/v2/")

	// Routes: <name>/tags/list | <name>/manifests/<ref> | <name>/blobs/<dg>
	// where <name> may contain one slash (user/repo).
	if strings.HasSuffix(path, "/tags/list") {
		m.serveTags(w, req, strings.TrimSuffix(path, "/tags/list"))
		return
	}
	i := strings.LastIndex(path, "/")
	if i < 0 {
		registry.WriteError(w, http.StatusNotFound, "UNSUPPORTED", "unrecognized registry path")
		return
	}
	ref := path[i+1:]
	rest := path[:i]
	j := strings.LastIndex(rest, "/")
	if j < 0 {
		registry.WriteError(w, http.StatusNotFound, "UNSUPPORTED", "unrecognized registry path")
		return
	}
	name, kind := rest[:j], rest[j+1:]

	switch kind {
	case "manifests":
		m.serveManifest(w, req, name, ref)
	case "blobs":
		m.serveBlob(w, req, name, ref)
	default:
		registry.WriteError(w, http.StatusNotFound, "UNSUPPORTED", "unrecognized registry path")
	}
}

// serveStats reports the cache counters plus the derived hit ratio.
func (m *Mirror) serveStats(w http.ResponseWriter) {
	s := m.Cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		cache.Stats
		HitRatio float64 `json:"hit_ratio"`
	}{s, s.HitRatio()})
}

// serveTags proxies tag listings straight through — tags are mutable and
// listing them is rare, so caching buys nothing.
func (m *Mirror) serveTags(w http.ResponseWriter, req *http.Request, name string) {
	tags, err := m.Origin.TagsContext(req.Context(), name)
	if err != nil {
		m.writeUpstreamError(w, err, "MANIFEST_UNKNOWN")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"name": name, "tags": tags})
}

// serveManifest handles GET/HEAD <name>/manifests/<ref>. By-digest
// requests are immutable and served through the cache; by-tag requests
// always revalidate against the origin (the tag may have moved) but the
// fetched bytes are admitted under their digest for later by-digest hits.
func (m *Mirror) serveManifest(w http.ResponseWriter, req *http.Request, name, ref string) {
	if d, err := digest.Parse(ref); err == nil {
		fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
			raw, _, err := m.Origin.ManifestRawContext(ctx, name, d.String())
			if err != nil {
				return nil, 0, mapOriginErr(err)
			}
			return io.NopCloser(bytes.NewReader(raw)), int64(len(raw)), nil
		}
		rc, size, _, err := m.Cache.GetOrFill(req.Context(), d, fill)
		if err != nil {
			m.writeUpstreamError(w, err, "MANIFEST_UNKNOWN")
			return
		}
		m.writeManifest(w, req, d, size, rc)
		return
	}

	raw, d, err := m.Origin.ManifestRawContext(req.Context(), name, ref)
	if err != nil {
		m.writeUpstreamError(w, err, "MANIFEST_UNKNOWN")
		return
	}
	// Best-effort admission: a full cache may reject it, which only costs
	// a later origin round-trip.
	m.Cache.Admit(d, raw)
	m.writeManifest(w, req, d, int64(len(raw)), io.NopCloser(bytes.NewReader(raw)))
}

// writeManifest emits manifest headers and, for GET, streams the body
// verbatim — byte-identical to the origin response so digests verify.
func (m *Mirror) writeManifest(w http.ResponseWriter, req *http.Request, d digest.Digest, size int64, rc io.ReadCloser) {
	defer drainClose(rc)
	w.Header().Set("Content-Type", manifest.MediaTypeManifest)
	w.Header().Set("Docker-Content-Digest", d.String())
	w.Header().Set("Content-Length", fmt.Sprint(size))
	if req.Method == http.MethodHead {
		return
	}
	blobstore.CopyBody(w, rc)
}

// serveBlob handles GET/HEAD <name>/blobs/<digest> with single-range
// support, serving hits from the cache and filling misses from the origin
// while the client streams.
//
// Contract: admission of a ranged miss is asynchronous to the response.
// The client receives its full Content-Length as soon as the range has
// been copied and must not wait for the tail; the deferred drainClose
// reads the rest of the blob into the cache afterwards. A caller that
// needs the blob resident (a test, a warm-up) polls Cache.Contains.
func (m *Mirror) serveBlob(w http.ResponseWriter, req *http.Request, name, ref string) {
	d, err := digest.Parse(ref)
	if err != nil {
		registry.WriteError(w, http.StatusBadRequest, "DIGEST_INVALID", "invalid digest")
		return
	}

	if req.Method == http.MethodHead {
		size, err := m.Cache.Stat(d)
		if errors.Is(err, cache.ErrMiss) {
			// Stat misses proxy to the origin without filling: HEAD is how
			// clients probe for cross-repo mounts, and pulling a whole blob
			// to answer one would inflate the cache with untouched bytes.
			size, err = m.Origin.BlobStatContext(req.Context(), name, d)
		}
		if err != nil {
			m.writeUpstreamError(w, err, "BLOB_UNKNOWN")
			return
		}
		w.Header().Set("Docker-Content-Digest", d.String())
		w.Header().Set("Accept-Ranges", "bytes")
		w.Header().Set("Content-Length", fmt.Sprint(size))
		return
	}

	fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
		rc, size, err := m.Origin.BlobContext(ctx, name, d)
		if err != nil {
			return nil, 0, mapOriginErr(err)
		}
		return rc, size, nil
	}
	rc, size, _, err := m.Cache.GetOrFill(req.Context(), d, fill)
	if err != nil {
		m.writeUpstreamError(w, err, "BLOB_UNKNOWN")
		return
	}
	defer drainClose(rc)

	w.Header().Set("Docker-Content-Digest", d.String())
	w.Header().Set("Accept-Ranges", "bytes")

	start, length, ok := registry.ParseRange(req.Header.Get("Range"), size)
	if !ok {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		registry.WriteError(w, http.StatusRequestedRangeNotSatisfiable, "RANGE_INVALID", "unsatisfiable range")
		return
	}
	partial := start != 0 || length != size
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(length))
	if partial {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size))
		w.WriteHeader(http.StatusPartialContent)
	}
	// On a miss the reader is a tee feeding the cache, so the skipped
	// prefix and the tail past the range must still be read, not seeked:
	// drainClose consumes the tail after the response is complete.
	if start > 0 {
		if _, err := io.CopyN(io.Discard, rc, start); err != nil {
			return
		}
	}
	// Full bodies copy through EOF, not to the byte count: a hit pushes
	// itself to the client in one Write, and a miss-fill tee completes
	// admission before the handler returns.
	var body io.Reader = rc
	if partial {
		body = io.LimitReader(rc, length)
	}
	blobstore.CopyBody(w, body)
}

// drainClose consumes whatever is left of a cache reader before closing
// it. For miss-fill tees this completes admission of the whole blob even
// when the client asked for a sub-range. It runs deferred, after the
// handler's last write, so admission may land after the client has seen
// the end of its response.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, rc)
	rc.Close()
}

// mapOriginErr converts origin-client errors into the cache's vocabulary
// so absent upstream content is negative-cached.
func mapOriginErr(err error) error {
	if errors.Is(err, registry.ErrNotFound) {
		return fmt.Errorf("%w: %v", cache.ErrUpstreamNotFound, err)
	}
	return err
}

// writeUpstreamError translates a lookup/fill error into the registry v2
// error envelope the client expects.
func (m *Mirror) writeUpstreamError(w http.ResponseWriter, err error, notFoundCode string) {
	switch {
	case errors.Is(err, cache.ErrUpstreamNotFound), errors.Is(err, registry.ErrNotFound):
		registry.WriteError(w, http.StatusNotFound, notFoundCode, "not known to origin")
	case errors.Is(err, registry.ErrUnauthorized):
		w.Header().Set("WWW-Authenticate", `Bearer realm="synthetic",service="registry"`)
		registry.WriteError(w, http.StatusUnauthorized, "UNAUTHORIZED", "authentication required")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away; 499-style best effort.
		registry.WriteError(w, http.StatusServiceUnavailable, "UNAVAILABLE", "request cancelled")
	default:
		var te *registry.ThrottleError
		if errors.As(err, &te) {
			if hint := registry.RetryAfterHint(err); hint > 0 {
				w.Header().Set("Retry-After", fmt.Sprint(int(hint.Seconds())))
			}
			registry.WriteError(w, te.Status, "TOOMANYREQUESTS", "origin throttled")
			return
		}
		registry.WriteError(w, http.StatusBadGateway, "UNKNOWN", "origin error")
	}
}
