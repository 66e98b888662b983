package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/httpx"
	"repro/internal/manifest"
)

// pushTestSetup returns a registry with one public and one private repo
// and no content.
func pushTestSetup(t *testing.T) (*Registry, *Client, *Client) {
	t.Helper()
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("alice/app", false)
	reg.CreateRepo("bob/secret", true)
	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	return reg, &Client{Base: srv.URL}, &Client{Base: srv.URL, Token: "tok"}
}

// pushImage pushes a one-layer image and returns its pieces.
func pushImage(t *testing.T, c *Client, repo, tag string) (layer []byte, m *manifest.Manifest) {
	t.Helper()
	layer = []byte("layer content for " + repo + ":" + tag)
	layerDg, err := c.PushBlobContext(context.Background(), repo, layer)
	if err != nil {
		t.Fatal(err)
	}
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	configDg, err := c.PushBlobContext(context.Background(), repo, config)
	if err != nil {
		t.Fatal(err)
	}
	m, err = manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: configDg},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: layerDg}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushManifestContext(context.Background(), repo, tag, m); err != nil {
		t.Fatal(err)
	}
	return layer, m
}

func TestPushThenPullRoundTrip(t *testing.T) {
	reg, c, _ := pushTestSetup(t)
	layer, m := pushImage(t, c, "alice/app", "latest")

	got, gotDigest, err := c.ManifestContext(context.Background(), "alice/app", "latest")
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := manifestDigest(t, m)
	if gotDigest != wantDigest {
		t.Fatalf("pulled manifest digest %s, pushed %s", gotDigest.Short(), wantDigest.Short())
	}
	content, err := blobVerified(c, "alice/app", got.Layers[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != string(layer) {
		t.Fatal("layer bytes changed in push/pull round trip")
	}
	st := reg.Stats()
	if st.BlobPushes != 2 || st.ManifestPushes != 1 {
		t.Fatalf("push counters: %+v", st)
	}
}

func TestPushManifestRequiresBlobs(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: 4, Digest: digest.FromBytes([]byte("missing config"))},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: 4, Digest: digest.FromBytes([]byte("missing layer"))}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushManifestContext(context.Background(), "alice/app", "latest", m); err == nil {
		t.Fatal("manifest with missing blobs accepted")
	}
}

// TestManifestPutSizing: the server reads a pushed manifest as the client
// reads a pulled one. A chunked push (no Content-Length) is accepted, and a
// manifest over 4 MiB is refused with MANIFEST_INVALID whether or not it
// declares its length — here a valid manifest padded with whitespace, which
// would parse.
func TestManifestPutSizing(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("alice/app", false)
	var putLen atomic.Int64 // Content-Length of the last PUT the server saw
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPut {
			putLen.Store(req.ContentLength)
		}
		reg.ServeHTTP(w, req)
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	_, m := pushImage(t, c, "alice/app", "latest")
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: httpx.NewTransport()}
	put := func(tag string, body []byte, chunked bool) (int, string) {
		t.Helper()
		var r io.Reader = bytes.NewReader(body)
		if chunked {
			r = struct{ io.Reader }{r} // hides the length from the request
		}
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v2/alice/app/manifests/"+tag, r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	if code, msg := put("chunked", raw, true); code != http.StatusCreated {
		t.Fatalf("chunked manifest push: %d %s, want 201", code, msg)
	}
	if n := putLen.Load(); n != -1 {
		t.Fatalf("chunked push reached the server with Content-Length %d, want -1", n)
	}
	if _, d, err := c.ManifestContext(context.Background(), "alice/app", "chunked"); err != nil || d != digest.FromBytes(raw) {
		t.Fatalf("pulling the chunked push: digest %s, %v; want %s", d.Short(), err, digest.FromBytes(raw).Short())
	}

	padded := append(append([]byte(nil), raw...), bytes.Repeat([]byte(" "), maxManifestSize)...)
	for _, chunked := range []bool{false, true} {
		code, msg := put("big", padded, chunked)
		if code != http.StatusBadRequest || !strings.Contains(msg, "MANIFEST_INVALID") || !strings.Contains(msg, errManifestTooLarge.Error()) {
			t.Fatalf("%d-byte manifest (chunked %v): %d %s, want 400 MANIFEST_INVALID", len(padded), chunked, code, msg)
		}
	}
	if _, _, err := c.ManifestContext(context.Background(), "alice/app", "big"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused manifest was tagged: %v", err)
	}
}

func TestPushToPrivateRepoRequiresAuth(t *testing.T) {
	_, anon, authed := pushTestSetup(t)
	if _, err := anon.PushBlobContext(context.Background(), "bob/secret", []byte("data")); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous push = %v, want ErrUnauthorized", err)
	}
	if _, err := authed.PushBlobContext(context.Background(), "bob/secret", []byte("data")); err != nil {
		t.Fatalf("authorized push failed: %v", err)
	}
}

func TestPushToUnknownRepo(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	if _, err := c.PushBlobContext(context.Background(), "ghost/repo", []byte("data")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("push to unknown repo = %v, want ErrNotFound", err)
	}
}

func TestUploadRejectsBadDigest(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	// Hand-roll a request with a mismatching digest parameter.
	wrong := digest.FromBytes([]byte("something else"))
	u := c.Base + "/v2/alice/app/blobs/uploads/?digest=" + wrong.String()
	resp, err := http.Post(u, "application/octet-stream", strings.NewReader("actual content"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched digest upload status %d, want 400", resp.StatusCode)
	}
	// And one with no digest at all.
	resp, err = http.Post(c.Base+"/v2/alice/app/blobs/uploads/", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("digestless upload status %d, want 400", resp.StatusCode)
	}
}

func TestRetagMovesTag(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	_, m1 := pushImage(t, c, "alice/app", "latest")
	layer2 := []byte("version two layer")
	l2, err := c.PushBlobContext(context.Background(), "alice/app", layer2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := manifest.New(m1.Config, []manifest.Descriptor{
		{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer2)), Digest: l2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushManifestContext(context.Background(), "alice/app", "latest", m2); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ManifestContext(context.Background(), "alice/app", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].Digest != l2 {
		t.Fatal("latest tag did not move to the new manifest")
	}
}

func TestCatalogPagination(t *testing.T) {
	reg := New(blobstore.NewMemory())
	want := []string{}
	for i := 0; i < 23; i++ {
		name := "cat/repo" + string(rune('a'+i))
		reg.CreateRepo(name, false)
		want = append(want, name)
	}
	srv := httptest.NewServer(reg)
	defer srv.Close()

	got := catalog(t, srv.URL, 7) // forces 4 pages
	if len(got) != len(want) {
		t.Fatalf("catalog returned %d repos, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("catalog not sorted")
		}
	}
}

// catalog pages GET /v2/_catalog with the n/last scheme until a short
// page and returns every repository name.
func catalog(t *testing.T, base string, n int) []string {
	t.Helper()
	var all []string
	for {
		url := fmt.Sprintf("%s/v2/_catalog?n=%d", base, n)
		if len(all) > 0 {
			url += "&last=" + all[len(all)-1]
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Repositories []string `json:"repositories"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, body.Repositories...)
		if len(body.Repositories) < n {
			return all
		}
	}
}

func TestCatalogBadParams(t *testing.T) {
	reg := New(blobstore.NewMemory())
	srv := httptest.NewServer(reg)
	defer srv.Close()
	for _, q := range []string{"n=0", "n=abc", "n=99999"} {
		resp, err := http.Get(srv.URL + "/v2/_catalog?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("catalog?%s status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestCatalogEmpty(t *testing.T) {
	reg := New(blobstore.NewMemory())
	srv := httptest.NewServer(reg)
	defer srv.Close()
	if got := catalog(t, srv.URL, 10); len(got) != 0 {
		t.Fatalf("empty registry catalog: %v", got)
	}
}

// manifestDigest is the digest a registry addresses m by: that of its
// marshaled bytes.
func manifestDigest(t *testing.T, m *manifest.Manifest) digest.Digest {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return digest.FromBytes(b)
}
