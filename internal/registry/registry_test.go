package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/httpx"
	"repro/internal/manifest"
)

// newTestRegistry builds a registry with one public and one private repo,
// each holding a one-layer image tagged latest.
func newTestRegistry(t *testing.T) (*Registry, *httptest.Server, digest.Digest, digest.Digest) {
	t.Helper()
	reg := New(blobstore.NewMemory())

	layer := []byte("pretend this is a gzipped tarball")
	layerDg, err := reg.PushBlob(layer)
	if err != nil {
		t.Fatal(err)
	}
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	configDg, err := reg.PushBlob(config)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: configDg},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: layerDg}},
	)
	if err != nil {
		t.Fatal(err)
	}

	reg.CreateRepo("alice/app", false)
	if _, err := reg.PushManifest("alice/app", "latest", m); err != nil {
		t.Fatal(err)
	}
	reg.CreateRepo("bob/secret", true)
	if _, err := reg.PushManifest("bob/secret", "latest", m); err != nil {
		t.Fatal(err)
	}
	reg.CreateRepo("carol/untagged", false)
	if _, err := reg.PushManifest("carol/untagged", "v1", m); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	return reg, srv, layerDg, configDg
}

func TestPing(t *testing.T) {
	_, srv, _, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestManifestByTagAndDigest(t *testing.T) {
	_, srv, layerDg, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	m, d, err := c.ManifestContext(context.Background(), "alice/app", "latest")
	if err != nil {
		t.Fatalf("Manifest(latest): %v", err)
	}
	if len(m.Layers) != 1 || m.Layers[0].Digest != layerDg {
		t.Fatalf("manifest layers wrong: %+v", m.Layers)
	}
	// Re-fetch by digest.
	m2, d2, err := c.ManifestContext(context.Background(), "alice/app", d.String())
	if err != nil {
		t.Fatalf("Manifest(by digest): %v", err)
	}
	if d2 != d || m2.Layers[0].Digest != layerDg {
		t.Fatal("fetch by digest returned different manifest")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	_, srv, layerDg, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	content, err := blobVerified(c, "alice/app", layerDg)
	if err != nil {
		t.Fatalf("blob: %v", err)
	}
	if string(content) != "pretend this is a gzipped tarball" {
		t.Fatalf("blob content = %q", content)
	}
}

func TestBlobStreaming(t *testing.T) {
	_, srv, layerDg, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	rc, size, err := c.BlobContext(context.Background(), "alice/app", layerDg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, _ := io.ReadAll(rc)
	if int64(len(data)) != size {
		t.Fatalf("size header %d != body %d", size, len(data))
	}
}

func TestTags(t *testing.T) {
	_, srv, _, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	tags, err := c.TagsContext(context.Background(), "alice/app")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != "latest" {
		t.Fatalf("tags = %v", tags)
	}
	tags, err = c.TagsContext(context.Background(), "carol/untagged")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != "v1" {
		t.Fatalf("carol tags = %v", tags)
	}
}

func TestAuthRequired(t *testing.T) {
	reg, srv, _, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	_, _, err := c.ManifestContext(context.Background(), "bob/secret", "latest")
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("private repo error = %v, want ErrUnauthorized", err)
	}
	if reg.Stats().AuthDenied != 1 {
		t.Fatalf("AuthDenied = %d", reg.Stats().AuthDenied)
	}
	// A bearer token (any) unlocks it.
	authed := &Client{Base: srv.URL, Token: "secret-token"}
	if _, _, err := authed.ManifestContext(context.Background(), "bob/secret", "latest"); err != nil {
		t.Fatalf("authorized fetch failed: %v", err)
	}
}

func TestMissingTagAndRepo(t *testing.T) {
	_, srv, _, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	if _, _, err := c.ManifestContext(context.Background(), "carol/untagged", "latest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tag error = %v, want ErrNotFound", err)
	}
	if _, _, err := c.ManifestContext(context.Background(), "nobody/nothing", "latest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing repo error = %v, want ErrNotFound", err)
	}
	if _, err := blobVerified(c, "alice/app", digest.FromBytes([]byte("nope"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob error = %v, want ErrNotFound", err)
	}
}

// TestStatusErrorText: a 401, 404 or 416 reads as its sentinel's text and
// the target, matches the sentinel under errors.Is, and costs one small
// value, no formatting, when nobody reads it.
func TestStatusErrorText(t *testing.T) {
	const target = "http://registry/v2/alice/app/blobs/sha256:00"
	for status, class := range map[int]error{
		http.StatusUnauthorized:                 ErrUnauthorized,
		http.StatusNotFound:                     ErrNotFound,
		http.StatusRequestedRangeNotSatisfiable: ErrRangeUnsatisfiable,
	} {
		resp := &http.Response{StatusCode: status, Body: http.NoBody}
		err := statusErr(resp, target)
		if want := fmt.Errorf("%w: %s", class, target); err.Error() != want.Error() || !errors.Is(err, class) {
			t.Errorf("status %d: %q (errors.Is %v), want %q", status, err, errors.Is(err, class), want)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _ = statusErr(resp, target) }); n > 1 {
			t.Errorf("status %d: statusErr allocates %.0f times, want 1", status, n)
		}
	}
}

// TestErrorRepliesKeepTheConnection: 50 404s and 50 401s (plus missing-blob
// HEAD probes and anonymous pushes to a private repo) through one client on
// the shared transport ride one keep-alive connection. Closing an error
// body unread would make the transport dial again for every request.
func TestErrorRepliesKeepTheConnection(t *testing.T) {
	reg, _, _, _ := newTestRegistry(t)
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(reg)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: httpx.NewTransport()}}
	ctx := context.Background()
	missing := digest.FromBytes([]byte("nope"))
	for i := 0; i < 50; i++ {
		if _, _, err := c.ManifestContext(ctx, "carol/untagged", "latest"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing tag: %v, want ErrNotFound", err)
		}
		if _, _, err := c.ManifestContext(ctx, "bob/secret", "latest"); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("private repo: %v, want ErrUnauthorized", err)
		}
		if _, err := c.BlobStatContext(ctx, "alice/app", missing); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing blob HEAD: %v, want ErrNotFound", err)
		}
		if _, err := c.PushBlobContext(ctx, "bob/secret", []byte("data")); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("anonymous push: %v, want ErrUnauthorized", err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("200 error replies opened %d connections, want 1", got)
	}
}

func TestHeadManifestDoesNotCountAsPull(t *testing.T) {
	reg, srv, _, _ := newTestRegistry(t)
	req, _ := http.NewRequest(http.MethodHead, srv.URL+"/v2/alice/app/manifests/latest", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Docker-Content-Digest") == "" {
		t.Fatal("HEAD missing digest header")
	}
	if reg.Stats().ManifestGets != 0 {
		t.Fatal("HEAD counted as manifest GET")
	}
}

func TestStatsCountBlobTraffic(t *testing.T) {
	reg, srv, layerDg, _ := newTestRegistry(t)
	c := &Client{Base: srv.URL}
	for i := 0; i < 3; i++ {
		if _, err := blobVerified(c, "alice/app", layerDg); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.Stats()
	if st.BlobGets != 3 {
		t.Fatalf("BlobGets = %d, want 3", st.BlobGets)
	}
	if st.BlobBytes != 3*int64(len("pretend this is a gzipped tarball")) {
		t.Fatalf("BlobBytes = %d", st.BlobBytes)
	}
}

func TestInvalidDigestRejected(t *testing.T) {
	_, srv, _, _ := newTestRegistry(t)
	resp, err := http.Get(srv.URL + "/v2/alice/app/blobs/not-a-digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid digest status = %d, want 400", resp.StatusCode)
	}
}

func TestApiVersionCheck(t *testing.T) {
	_, srv, _, _ := newTestRegistry(t)
	resp, err := http.Get(srv.URL + "/v2/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Docker-Distribution-API-Version"); got != "registry/2.0" {
		t.Fatalf("version header = %q", got)
	}
}

func TestPushManifestToMissingRepo(t *testing.T) {
	reg := New(blobstore.NewMemory())
	m, _ := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: 1, Digest: digest.FromUint64(1)},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: 1, Digest: digest.FromUint64(2)}},
	)
	if _, err := reg.PushManifest("ghost/repo", "latest", m); !errors.Is(err, ErrRepoNotFound) {
		t.Fatalf("error = %v, want ErrRepoNotFound", err)
	}
}

func TestRepoEnumeration(t *testing.T) {
	reg, _, _, _ := newTestRegistry(t)
	repos := reg.Repos()
	if len(repos) != 3 {
		t.Fatalf("Repos() returned %d, want 3", len(repos))
	}
	if _, err := reg.Tags("alice/app"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Tags("ghost"); !errors.Is(err, ErrRepoNotFound) {
		t.Fatalf("Tags(ghost) = %v", err)
	}
}

// TestManifestRawBodySizing: a manifest response that declares its length is
// read into a buffer of exactly that length; one that does not is still read
// whole; a body shorter than declared is an error, not a short manifest; and
// one over 4 MiB, declared or chunked, is refused.
func TestManifestRawBodySizing(t *testing.T) {
	body := bytes.Repeat([]byte(`{"layers":[]}`), 300)
	d := digest.FromBytes(body)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Docker-Content-Digest", d.String())
		switch path.Base(req.URL.Path) { // the tag names the response shape
		case "declared":
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write(body)
		case "chunked":
			w.Write(body[:1000])
			w.(http.Flusher).Flush()
			w.Write(body[1000:])
		case "short":
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write(body[:1000])
		case "huge":
			w.Header().Set("Content-Length", fmt.Sprint(maxManifestSize+1))
			w.Write(make([]byte, maxManifestSize+1))
		case "huge-chunked":
			w.Write(make([]byte, maxManifestSize+1))
		}
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}

	for _, mode := range []string{"declared", "chunked"} {
		raw, got, err := c.ManifestRawContext(context.Background(), "r/m", mode)
		if err != nil || got != d || !bytes.Equal(raw, body) {
			t.Fatalf("%s: got %d bytes, digest %s, %v; want the %d-byte body", mode, len(raw), got.Short(), err, len(body))
		}
		if mode == "declared" && cap(raw) != len(raw) {
			t.Errorf("declared: buffer of %d bytes for a %d-byte manifest, want it sized from Content-Length", cap(raw), len(raw))
		}
	}
	if raw, _, err := c.ManifestRawContext(context.Background(), "r/m", "short"); err == nil {
		t.Fatalf("short body: got %d bytes and no error", len(raw))
	}
	for _, mode := range []string{"huge", "huge-chunked"} {
		if raw, _, err := c.ManifestRawContext(context.Background(), "r/m", mode); !errors.Is(err, errManifestTooLarge) {
			t.Fatalf("%s: got %d bytes, %v; want errManifestTooLarge", mode, len(raw), err)
		}
	}
}
