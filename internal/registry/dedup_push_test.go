package registry

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dedupstore"
	"repro/internal/digest"
)

// dedupPush uploads blob to a fresh registry on dedup storage and returns
// the response status and the error envelope's code and message, if any.
func dedupPush(t *testing.T, blob []byte) (srv *httptest.Server, status int, code, msg string) {
	t.Helper()
	reg := New(dedupstore.NewWithConfig(dedupstore.NewMemoryPool(0), dedupstore.Config{}))
	reg.CreateRepo("r/push", false)
	srv = httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v2/r/push/blobs/uploads/?digest="+digest.FromBytes(blob).String(),
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorBody
	if resp.StatusCode != http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || len(body.Errors) != 1 {
			t.Fatalf("status %d: error envelope %+v, %v", resp.StatusCode, body, err)
		}
		code, msg = body.Errors[0].Code, body.Errors[0].Message
	}
	return srv, resp.StatusCode, code, msg
}

// TestDedupPushAcceptsBadHeaderBlob: a blob whose first block has a valid
// tar checksum over a mode field that does not parse is no tar, so a
// registry on dedup storage takes it as a raw blob and serves it back
// byte-exact, as one on plain storage does.
func TestDedupPushAcceptsBadHeaderBlob(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("..", "tarutil", "testdata", "fuzz", "FuzzWalk", "bad-mode"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")\n")
	s, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(s)
	srv, status, code, msg := dedupPush(t, blob)
	if status != http.StatusCreated {
		t.Fatalf("push: %d %s %q, want 201", status, code, msg)
	}
	got, err := blobVerified(&Client{Base: srv.URL}, "r/push", digest.FromBytes(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("pulled blob differs from the pushed one")
	}
}

// TestDedupPushForeignLayerVerbatim: a gzip layer written by archive/tar
// with metadata the store's tar builder cannot reproduce is taken (201) and
// pulled back byte-exact: the store commits its spooled wire bytes
// verbatim when the recipe's proof fails.
func TestDedupPushForeignLayerVerbatim(t *testing.T) {
	blob := foreignLayer(t, []byte("root:x:0:0\n"))
	srv, status, code, msg := dedupPush(t, blob)
	if status != http.StatusCreated {
		t.Fatalf("push: %d %s %q, want 201", status, code, msg)
	}
	got, err := blobVerified(&Client{Base: srv.URL}, "r/push", digest.FromBytes(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("pulled blob differs from the pushed one")
	}
}

// TestDedupPushTruncatedTarLayer: a gzip layer whose tar is cut short
// inside its one member does not decompose, but its digest checks out and
// it fits the store's spool, so a registry on dedup storage takes it (201)
// and serves it back byte-exact, as one on plain storage does.
func TestDedupPushTruncatedTarLayer(t *testing.T) {
	var tb bytes.Buffer
	tw := tar.NewWriter(&tb)
	content := bytes.Repeat([]byte("truncated "), 1_000)
	if err := tw.WriteHeader(&tar.Header{Name: "etc/motd", Mode: 0o644, Size: int64(len(content))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(content); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(tb.Bytes()[:512+len(content)/2]) // the header and half the member
	zw.Close()
	blob := buf.Bytes()
	srv, status, code, msg := dedupPush(t, blob)
	if status != http.StatusCreated {
		t.Fatalf("push: %d %s %q, want 201", status, code, msg)
	}
	got, err := blobVerified(&Client{Base: srv.URL}, "r/push", digest.FromBytes(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("pulled blob differs from the pushed one")
	}
}

// TestDedupPushRefusalSaysWhy: a foreign layer too large for the store's
// spool cannot be committed verbatim once its proof fails, so it is
// refused with BLOB_UPLOAD_INVALID and the store's reason, not a generic
// message.
func TestDedupPushRefusalSaysWhy(t *testing.T) {
	big := make([]byte, 1<<20+1<<10)
	rand.New(rand.NewSource(3)).Read(big)
	_, status, code, msg := dedupPush(t, foreignLayer(t, big))
	if status != http.StatusBadRequest || code != "BLOB_UPLOAD_INVALID" {
		t.Fatalf("push: %d %s, want 400 BLOB_UPLOAD_INVALID", status, code)
	}
	if !strings.Contains(msg, dedupstore.ErrNotReproducible.Error()) {
		t.Fatalf("message %q does not name the refusal %q", msg, dedupstore.ErrNotReproducible)
	}
}

// foreignLayer is a gzip layer of one file, content, written by archive/tar
// with a mod time, an owner name and a mode the store's tar builder never
// writes.
func foreignLayer(t *testing.T, content []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tw := tar.NewWriter(zw)
	hdr := &tar.Header{Name: "etc/passwd", Mode: 0o600, Size: int64(len(content)),
		ModTime: time.Date(2019, 9, 24, 12, 0, 0, 0, time.UTC), Uname: "builder"}
	if err := tw.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
