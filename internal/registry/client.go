package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// statusErr maps a non-2xx response to the typed error vocabulary shared by
// every client entry point. The response body is closed.
func statusErr(resp *http.Response, what string) error {
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		return fmt.Errorf("%w: %s", ErrUnauthorized, what)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, what)
	case http.StatusRequestedRangeNotSatisfiable:
		return fmt.Errorf("%w: %s", ErrRangeUnsatisfiable, what)
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
	// Resumes bounds the mid-stream Range resumes BlobStreamVerified
	// attempts per blob when the connection drops partway (3 when 0;
	// negative disables resuming).
	Resumes int
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

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("registry client: building request: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("registry client: %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp, path)
	}
	return resp, nil
}

// Ping checks the /v2/ endpoint.
func (c *Client) Ping() error {
	resp, err := c.get(context.Background(), "/v2/")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Tags lists the tags of a repository.
func (c *Client) Tags(name string) ([]string, error) {
	return c.TagsContext(context.Background(), name)
}

// TagsContext is Tags with cancellation.
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

// Catalog enumerates every repository via the /v2/_catalog endpoint,
// paging with the n/last scheme. Docker Hub did not expose this API at the
// paper's crawl time — it is the modern alternative to the search scrape.
func (c *Client) Catalog(pageSize int) ([]string, error) {
	if pageSize <= 0 {
		pageSize = 100
	}
	var all []string
	last := ""
	for {
		url := fmt.Sprintf("%s/v2/_catalog?n=%d", c.Base, pageSize)
		if last != "" {
			url += "&last=" + last
		}
		resp, err := c.get(context.Background(), strings.TrimPrefix(url, c.Base))
		if err != nil {
			return nil, err
		}
		var body struct {
			Repositories []string `json:"repositories"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("registry client: decoding catalog: %w", err)
		}
		if len(body.Repositories) == 0 {
			return all, nil
		}
		all = append(all, body.Repositories...)
		last = body.Repositories[len(body.Repositories)-1]
		if len(body.Repositories) < pageSize {
			return all, nil
		}
	}
}

// Manifest fetches and validates a manifest by tag or digest, returning it
// together with its content digest (from the Docker-Content-Digest header,
// verified against the body).
func (c *Client) Manifest(name, ref string) (*manifest.Manifest, digest.Digest, error) {
	return c.ManifestContext(context.Background(), name, ref)
}

// ManifestContext is Manifest with cancellation: the fetch aborts when ctx
// is done.
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
	raw, err := readManifestBody(resp)
	if err != nil {
		return nil, "", fmt.Errorf("registry client: reading manifest: %w", err)
	}
	d := digest.FromBytes(raw)
	if hdr := resp.Header.Get("Docker-Content-Digest"); hdr != "" && hdr != d.String() {
		return nil, "", fmt.Errorf("registry client: manifest digest mismatch: header %s, body %s", hdr, d)
	}
	return raw, d, nil
}

// maxManifestPrealloc bounds the buffer a manifest response's
// Content-Length may size up front (4 MiB, the manifest limit real
// registries enforce); a larger or absent declaration is read incrementally.
const maxManifestPrealloc = 4 << 20

// readManifestBody reads a manifest response into a buffer of exactly the
// declared length: io.ReadAll's 512-byte start and doubling allocate about
// three times the body, on a call every pull makes.
func readManifestBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxManifestPrealloc {
		raw := make([]byte, n)
		_, err := io.ReadFull(resp.Body, raw)
		return raw, err
	}
	return io.ReadAll(resp.Body)
}

// Blob streams a blob; the caller must Close the reader. Content is not
// verified here — use BlobVerified when integrity matters.
func (c *Client) Blob(name string, d digest.Digest) (io.ReadCloser, int64, error) {
	return c.BlobContext(context.Background(), name, d)
}

// BlobContext is Blob with cancellation: when ctx is done, an in-flight
// body read fails with ctx's error, aborting the transfer mid-stream.
func (c *Client) BlobContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	resp, err := c.get(ctx, "/v2/"+name+"/blobs/"+d.String())
	if err != nil {
		return nil, 0, err
	}
	return resp.Body, resp.ContentLength, nil
}

// BlobRange streams a blob starting at offset via an HTTP Range request —
// the resume path for interrupted layer pulls. If the server ignores the
// range (plain 200), the offset is skipped client-side so the caller
// always reads from the requested position.
func (c *Client) BlobRange(name string, d digest.Digest, offset int64) (io.ReadCloser, error) {
	return c.BlobRangeContext(context.Background(), name, d, offset)
}

// BlobRangeContext is BlobRange with cancellation.
func (c *Client) BlobRangeContext(ctx context.Context, name string, d digest.Digest, offset int64) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v2/"+name+"/blobs/"+d.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("registry client: building range request: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("registry client: range request: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		return resp.Body, nil
	case http.StatusOK:
		if offset > 0 {
			if _, err := io.CopyN(io.Discard, resp.Body, offset); err != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("registry client: skipping to offset: %w", err)
			}
		}
		return resp.Body, nil
	default:
		return nil, statusErr(resp, "blob "+d.Short())
	}
}

// BlobStatContext checks a blob's existence and size with a HEAD request —
// what a mirror answers HEAD probes with without pulling the blob through.
func (c *Client) BlobStatContext(ctx context.Context, name string, d digest.Digest) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.Base+"/v2/"+name+"/blobs/"+d.String(), nil)
	if err != nil {
		return 0, fmt.Errorf("registry client: building stat request: %w", err)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, fmt.Errorf("registry client: stat request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, statusErr(resp, "blob "+d.Short())
	}
	io.Copy(io.Discard, resp.Body)
	return resp.ContentLength, nil
}

// defaultResumes is the mid-stream resume budget when Client.Resumes is 0.
const defaultResumes = 3

// BlobStreamVerified streams a blob with incremental integrity checking:
// every chunk passes through a SHA-256 hasher as it arrives, a transient
// mid-stream failure is resumed from the last received offset with a Range
// request instead of refetching from zero, and the final Read returns an
// integrity error in place of io.EOF when the assembled content does not
// hash to d. Unlike BlobVerified no full-blob buffer ever materializes —
// the caller consumes the bytes as they cross the wire (e.g. straight into
// blobstore.Store.PutStream). The returned size is the server's
// Content-Length (-1 when unknown); the caller must Close the reader.
func (c *Client) BlobStreamVerified(name string, d digest.Digest) (io.ReadCloser, int64, error) {
	return c.BlobStreamVerifiedContext(context.Background(), name, d)
}

// BlobStreamVerifiedContext is BlobStreamVerified with cancellation: when
// ctx is done, in-flight reads fail with ctx's error and mid-stream
// resumes are not attempted — cancellation reaches into the transfer
// itself instead of waiting for the blob to finish.
func (c *Client) BlobStreamVerifiedContext(ctx context.Context, name string, d digest.Digest) (io.ReadCloser, int64, error) {
	rc, size, err := c.BlobContext(ctx, name, d)
	if err != nil {
		return nil, 0, err
	}
	resumes := c.Resumes
	if resumes == 0 {
		resumes = defaultResumes
	}
	if resumes < 0 {
		resumes = 0
	}
	return &blobStream{c: c, ctx: ctx, name: name, want: d, body: rc, h: digest.NewHasher(), resumes: resumes}, size, nil
}

// blobStream is the verifying, resuming reader behind BlobStreamVerified.
type blobStream struct {
	c       *Client
	ctx     context.Context
	name    string
	want    digest.Digest
	body    io.ReadCloser
	h       *digest.Hasher
	off     int64 // bytes delivered so far == resume offset
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
			if got := s.h.Digest(); got != s.want {
				s.err = fmt.Errorf("registry client: blob %s arrived as %s", s.want.Short(), got.Short())
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

// Close implements io.Closer.
func (s *blobStream) Close() error { return s.body.Close() }

// BlobVerified downloads a blob fully and verifies its digest, the way the
// Docker client checks layer integrity after a pull.
func (c *Client) BlobVerified(name string, d digest.Digest) ([]byte, error) {
	rc, _, err := c.Blob(name, d)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	content, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("registry client: reading blob: %w", err)
	}
	if got := digest.FromBytes(content); got != d {
		return nil, fmt.Errorf("registry client: blob %s arrived as %s", d.Short(), got.Short())
	}
	return content, nil
}
