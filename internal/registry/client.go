package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/digest"
	"repro/internal/httpx"
	"repro/internal/manifest"
)

// Client errors distinguish the paper's two download-failure modes.
var (
	// ErrUnauthorized corresponds to the 13% of failures that "required
	// authentication" (§III-B).
	ErrUnauthorized = errors.New("registry client: authentication required")
	// ErrNotFound covers missing repositories, tags ("did not have a
	// latest tag") and blobs.
	ErrNotFound = errors.New("registry client: not found")
	// ErrRangeUnsatisfiable is a 416: the requested resume offset lies
	// beyond the blob. Retrying the same range can never succeed, so the
	// class is permanent.
	ErrRangeUnsatisfiable = errors.New("registry client: requested range not satisfiable")
)

// ThrottleError is a 429 Too Many Requests or 503 Service Unavailable: the
// server is shedding load and the request is worth retrying. RetryAfter
// carries the server's Retry-After hint (0 when the server sent none), which
// retry loops use as a floor for their next backoff delay.
type ThrottleError struct {
	// Status is the HTTP status that signalled the throttle (429 or 503).
	Status int
	// RetryAfter is the server's hinted pause, 0 when absent.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ThrottleError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("registry client: throttled with status %d (retry after %s)", e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("registry client: throttled with status %d", e.Status)
}

// RetryAfterHint extracts the server-provided Retry-After duration from an
// error chain, or 0 when the error carries no hint.
func RetryAfterHint(err error) time.Duration {
	var te *ThrottleError
	if errors.As(err, &te) {
		return te.RetryAfter
	}
	return 0
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the form LimitInFlight and real registries emit under load).
func parseRetryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// classError is a sentinel class and its target, formatted only when
// asked: a probe that expects a 404 drops the error unread.
type classError struct {
	class error
	what  string
}

func (e *classError) Error() string { return e.class.Error() + ": " + e.what }

func (e *classError) Unwrap() error { return e.class }

// statusErr maps a non-2xx response to the typed error vocabulary shared by
// every client entry point. The response body is drained and closed, so
// the connection goes back to the idle pool (httpx.DrainClose).
func statusErr(resp *http.Response, what string) error {
	httpx.DrainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		return &classError{ErrUnauthorized, what}
	case http.StatusNotFound:
		return &classError{ErrNotFound, what}
	case http.StatusRequestedRangeNotSatisfiable:
		return &classError{ErrRangeUnsatisfiable, what}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return &ThrottleError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp)}
	default:
		return fmt.Errorf("registry client: %s: unexpected status %d", what, resp.StatusCode)
	}
}

// Client talks to a registry over HTTP.
type Client struct {
	// Base is the registry root, e.g. "http://127.0.0.1:5000".
	Base string
	// HTTP is the underlying client; httpx.DefaultClient (the shared
	// tuned transport) if nil.
	HTTP *http.Client
	// Token, when set, is sent as a bearer token.
	Token string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	// Not http.DefaultClient: its transport keeps only 2 idle connections
	// per host, which forces a reconnect per request once more than two
	// workers fan out against one registry.
	return httpx.DefaultClient
}

// do sends one request to target (the registry's base URL plus the
// request path) and returns the response when its status is one of ok;
// every other status goes through statusErr. It is the one place a request
// is built and given the bearer token, so every entry point maps statuses,
// throttles included, the same way.
func (c *Client) do(ctx context.Context, method, target string, body io.Reader, header http.Header, ok ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return nil, fmt.Errorf("registry client: building request: %w", err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("registry client: %s: %w", target, err)
	}
	if !slices.Contains(ok, resp.StatusCode) {
		return nil, statusErr(resp, target)
	}
	return resp, nil
}

// get is a GET of a path under Base that succeeds with 200.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	return c.do(ctx, http.MethodGet, c.Base+path, nil, nil, http.StatusOK)
}

// Ping checks the /v2/ endpoint.
func (c *Client) Ping() error {
	resp, err := c.get(context.Background(), "/v2/")
	if err != nil {
		return err
	}
	return httpx.DrainClose(resp.Body)
}

// TagsContext lists the tags of a repository.
func (c *Client) TagsContext(ctx context.Context, name string) ([]string, error) {
	resp, err := c.get(ctx, "/v2/"+name+"/tags/list")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Name string   `json:"name"`
		Tags []string `json:"tags"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("registry client: decoding tags: %w", err)
	}
	return body.Tags, nil
}

// ManifestContext fetches and validates a manifest by tag or digest,
// returning it together with its content digest (from the
// Docker-Content-Digest header, verified against the body). The fetch
// aborts when ctx is done.
func (c *Client) ManifestContext(ctx context.Context, name, ref string) (*manifest.Manifest, digest.Digest, error) {
	raw, d, err := c.ManifestRawContext(ctx, name, ref)
	if err != nil {
		return nil, "", err
	}
	m, err := manifest.Unmarshal(raw)
	if err != nil {
		return nil, "", err
	}
	return m, d, nil
}

// ManifestRawContext fetches a manifest's exact wire bytes together with
// their content digest (verified against the Docker-Content-Digest header).
// A caching mirror re-serves these bytes verbatim: re-marshalling a parsed
// manifest could reorder or reformat JSON and silently change the digest.
func (c *Client) ManifestRawContext(ctx context.Context, name, ref string) ([]byte, digest.Digest, error) {
	resp, err := c.get(ctx, "/v2/"+name+"/manifests/"+url.PathEscape(ref))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	raw, err := readManifest(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, "", fmt.Errorf("registry client: reading manifest: %w", err)
	}
	d := digest.FromBytes(raw)
	if hdr := resp.Header.Get("Docker-Content-Digest"); hdr != "" && hdr != d.String() {
		return nil, "", fmt.Errorf("registry client: manifest digest mismatch: header %s, body %s", hdr, d)
	}
	return raw, d, nil
}

// maxManifestSize is the largest manifest either end of the wire reads
// (4 MiB, the manifest limit real registries enforce).
const maxManifestSize = 4 << 20

// errManifestTooLarge refuses a manifest over maxManifestSize.
var errManifestTooLarge = errors.New("manifest exceeds 4 MiB")

// readManifest reads a manifest body whose declared length is n (-1 when
// unknown, a chunked body) into a buffer of exactly that length: io.ReadAll's
// 512-byte start and doubling allocate about three times the body, on a call
// every pull and every manifest push makes. A body over maxManifestSize is
// refused, without a read when its declared length already says so.
func readManifest(body io.Reader, n int64) ([]byte, error) {
	if n > maxManifestSize {
		return nil, errManifestTooLarge
	}
	if n >= 0 {
		raw := make([]byte, n)
		_, err := io.ReadFull(body, raw)
		return raw, err
	}
	raw, err := io.ReadAll(io.LimitReader(body, maxManifestSize+1))
	if err == nil && len(raw) > maxManifestSize {
		return nil, errManifestTooLarge
	}
	return raw, err
}

// BlobContext streams a blob; the caller must Close the reader. Content
// is not verified here — use BlobStreamVerifiedContext when integrity
// matters. When ctx is done, an in-flight body read fails with ctx's
// error, aborting the transfer mid-stream.
func (c *Client) BlobContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	resp, err := c.get(ctx, "/v2/"+name+"/blobs/"+d.String())
	if err != nil {
		return nil, 0, err
	}
	return resp.Body, resp.ContentLength, nil
}

// BlobRangeContext streams a blob starting at offset via an HTTP Range
// request — the resume path for interrupted layer pulls. If the server
// ignores the range (plain 200), the offset is skipped client-side so the
// caller always reads from the requested position.
func (c *Client) BlobRangeContext(ctx context.Context, name string, d digest.Digest, offset int64) (io.ReadCloser, error) {
	var header http.Header
	if offset > 0 {
		header = http.Header{"Range": {fmt.Sprintf("bytes=%d-", offset)}}
	}
	resp, err := c.do(ctx, http.MethodGet, c.Base+"/v2/"+name+"/blobs/"+d.String(), nil, header, http.StatusPartialContent, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK && offset > 0 {
		if _, err := io.CopyN(io.Discard, resp.Body, offset); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("registry client: skipping to offset: %w", err)
		}
	}
	return resp.Body, nil
}

// BlobStatContext checks a blob's existence and size with a HEAD request —
// what a mirror answers HEAD probes with without pulling the blob through.
func (c *Client) BlobStatContext(ctx context.Context, name string, d digest.Digest) (int64, error) {
	resp, err := c.do(ctx, http.MethodHead, c.Base+"/v2/"+name+"/blobs/"+d.String(), nil, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.ContentLength, nil
}

// maxResumes bounds the mid-stream Range resumes BlobStreamVerifiedContext
// attempts per blob when the connection drops partway.
const maxResumes = 3

// BlobStreamVerifiedContext streams a blob with incremental integrity
// checking: every chunk passes through a SHA-256 hasher as it arrives, a
// transient mid-stream failure is resumed from the last received offset
// with a Range request instead of refetching from zero, and the final Read
// returns an integrity error in place of io.EOF when the assembled content
// does not hash to d. No full-blob buffer ever materializes — the caller
// consumes the bytes as they cross the wire (e.g. straight into
// blobstore.Store.PutStream). The returned size is the server's
// Content-Length (-1 when unknown); the caller must Close the reader.
// When ctx is done, in-flight reads fail with ctx's error and mid-stream
// resumes are not attempted — cancellation reaches into the transfer
// itself instead of waiting for the blob to finish.
func (c *Client) BlobStreamVerifiedContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	rc, size, err := c.BlobContext(ctx, name, d)
	if err != nil {
		return nil, 0, err
	}
	h := hasherPool.Get().(*digest.Hasher)
	return &blobStream{c: c, ctx: ctx, name: name, want: d, body: rc, h: h, resumes: maxResumes}, size, nil
}

// hasherPool recycles the verifying hashers of blob streams.
var hasherPool = sync.Pool{New: func() any { return digest.NewHasher() }}

// blobStream is the verifying, resuming reader behind
// BlobStreamVerifiedContext.
type blobStream struct {
	c       *Client
	ctx     context.Context
	name    string
	want    digest.Digest
	body    io.ReadCloser
	h       *digest.Hasher // returned to hasherPool by Close
	off     int64          // bytes delivered so far == resume offset
	resumes int
	err     error // sticky terminal state (io.EOF on verified success)
}

// Read implements io.Reader. Bytes are hashed as they are returned; the
// digest verdict replaces the final io.EOF.
func (s *blobStream) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	for {
		n, err := s.body.Read(p)
		if n > 0 {
			s.h.Write(p[:n])
			s.off += int64(n)
		}
		switch {
		case err == nil:
			return n, nil
		case errors.Is(err, io.EOF):
			if !s.h.Matches(s.want) {
				s.err = fmt.Errorf("registry client: blob %s arrived as %s", s.want.Short(), s.h.Digest().Short())
			} else {
				s.err = io.EOF
			}
			return n, s.err
		default:
			// Mid-stream failure: resume from the bytes already verified
			// into the hasher rather than refetching from zero. A cancelled
			// transfer is not resumed — the failure IS the cancellation.
			if cerr := s.ctx.Err(); cerr != nil {
				s.err = cerr
				return n, s.err
			}
			if s.resumes <= 0 {
				s.err = fmt.Errorf("registry client: streaming blob %s at offset %d: %w", s.want.Short(), s.off, err)
				return n, s.err
			}
			s.resumes--
			s.body.Close()
			body, rerr := s.c.BlobRangeContext(s.ctx, s.name, s.want, s.off)
			if rerr != nil {
				s.err = fmt.Errorf("registry client: resuming blob %s at offset %d: %w", s.want.Short(), s.off, rerr)
				return n, s.err
			}
			s.body = body
			if n > 0 {
				return n, nil
			}
			// Nothing delivered yet this call: read from the resumed body.
		}
	}
}

// Close implements io.Closer. It hands the hasher back to the pool, so
// reads after Close fail.
func (s *blobStream) Close() error {
	if s.h != nil {
		s.h.Reset()
		hasherPool.Put(s.h)
		s.h = nil
		if s.err == nil {
			s.err = errStreamClosed
		}
	}
	return s.body.Close()
}

var errStreamClosed = errors.New("registry client: read on closed blob stream")
