package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

func TestBlobStreamVerifiedHappyPath(t *testing.T) {
	_, c, d, content := rangeSetup(t)
	rc, size, err := c.BlobStreamVerifiedContext(context.Background(), "r/blob", d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != int64(len(content)) {
		t.Fatalf("size = %d, want %d", size, len(content))
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("streamed bytes differ")
	}
	// A read past the verified EOF stays io.EOF.
	if n, err := rc.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("read after EOF = (%d, %v)", n, err)
	}
}

// TestBlobStreamClosedMidway: Close hands the stream's hasher back to the
// pool, so a read after it fails instead of hashing into a hasher another
// stream may hold; a second Close is harmless.
func TestBlobStreamClosedMidway(t *testing.T) {
	_, c, d, _ := rangeSetup(t)
	rc, _, err := c.BlobStreamVerifiedContext(context.Background(), "r/blob", d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Read(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if n, err := rc.Read(make([]byte, 8)); n != 0 || err == nil {
		t.Fatalf("read after Close = (%d, %v), want an error", n, err)
	}
	rc.Close()
}

func TestBlobStreamVerifiedDetectsCorruption(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/bad", false)
	content := bytes.Repeat([]byte("payload"), 1000)
	d, err := reg.PushBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	// Serve tampered bytes under the honest digest.
	tampered := append([]byte(nil), content...)
	tampered[100] ^= 0xFF
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.URL.Path, "/blobs/") {
			w.Write(tampered)
			return
		}
		reg.ServeHTTP(w, req)
	}))
	defer srv.Close()

	rc, _, err := c4(srv).BlobStreamVerifiedContext(context.Background(), "r/bad", d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil || !strings.Contains(err.Error(), "arrived as") {
		t.Fatalf("corrupt stream read err = %v, want integrity error", err)
	}
}

func c4(srv *httptest.Server) *Client { return &Client{Base: srv.URL} }

// truncatingProxy fronts a registry and, for the first `cuts` GETs of the
// target blob, advertises the full Content-Length but stops writing at
// `cutAt` bytes of the *remaining* range — the client observes a dropped
// connection mid-stream (io.ErrUnexpectedEOF), exactly the failure mode a
// month-long crawl hits.
type truncatingProxy struct {
	reg    *Registry
	target digest.Digest
	cutAt  int
	cuts   atomic.Int32
	gets   atomic.Int32 // blob GETs observed, for resume accounting
}

func (p *truncatingProxy) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !strings.Contains(req.URL.Path, "/blobs/"+p.target.String()) {
		p.reg.ServeHTTP(w, req)
		return
	}
	p.gets.Add(1)
	rec := httptest.NewRecorder()
	rec.Body = &bytes.Buffer{}
	p.reg.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	for k, vs := range res.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if p.cuts.Add(-1) >= 0 && len(body) > p.cutAt {
		// Promise everything, deliver a prefix: the Go server closes the
		// connection early and the client reads ErrUnexpectedEOF.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(res.StatusCode)
		w.Write(body[:p.cutAt])
		return
	}
	w.WriteHeader(res.StatusCode)
	w.Write(body)
}

// TestBlobStreamVerifiedResumesTruncation is the end-to-end resume path:
// the server drops the connection at byte N, the client resumes at offset N
// via a Range request, and the digest still verifies over the reassembled
// stream.
func TestBlobStreamVerifiedResumesTruncation(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/cut", false)
	content := make([]byte, 20_000)
	for i := range content {
		content[i] = byte(i * 13)
	}
	d, err := reg.PushBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &truncatingProxy{reg: reg, target: d, cutAt: 7_000}
	proxy.cuts.Store(1)
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	c := &Client{Base: srv.URL}
	rc, _, err := c.BlobStreamVerifiedContext(context.Background(), "r/cut", d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("resumed stream does not reassemble the blob")
	}
	if n := proxy.gets.Load(); n != 2 {
		t.Fatalf("server saw %d blob GETs, want 2 (initial + one resume)", n)
	}
}

// Repeated truncations resume repeatedly until the budget runs out.
func TestBlobStreamVerifiedResumeBudget(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/cut", false)
	content := make([]byte, 50_000)
	for i := range content {
		content[i] = byte(i * 31)
	}
	d, err := reg.PushBlob(content)
	if err != nil {
		t.Fatal(err)
	}

	// Three cuts within the budget of three resumes: succeeds.
	proxy := &truncatingProxy{reg: reg, target: d, cutAt: 9_000}
	proxy.cuts.Store(3)
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	rc, _, err := (&Client{Base: srv.URL}).BlobStreamVerifiedContext(context.Background(), "r/cut", d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if digest.FromBytes(got) != d {
		t.Fatal("multi-resume stream corrupt")
	}

	// A fourth cut is past the budget: it surfaces as a stream error.
	proxy.cuts.Store(4)
	rc, _, err = (&Client{Base: srv.URL}).BlobStreamVerifiedContext(context.Background(), "r/cut", d)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read past the resume budget err = %v, want mid-stream failure", err)
	}
}

// A blob shorter than promised but with a clean EOF (no connection error)
// must fail verification, not pass silently.
func TestBlobStreamVerifiedShortCleanEOF(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/short", false)
	content := bytes.Repeat([]byte("z"), 5_000)
	d, err := reg.PushBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.URL.Path, "/blobs/") {
			// Chunked response with a clean end after a prefix.
			w.Write(content[:1000])
			return
		}
		reg.ServeHTTP(w, req)
	}))
	defer srv.Close()
	rc, _, err := (&Client{Base: srv.URL}).BlobStreamVerifiedContext(context.Background(), "r/short", d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatal("short clean-EOF stream verified")
	}
}

// Streaming ingest end to end: client stream → store.PutStream, no
// full-blob buffer on either side, content lands verified.
func TestBlobStreamIntoStore(t *testing.T) {
	_, c, d, content := rangeSetup(t)
	for name, sink := range map[string]blobstore.Store{
		"memory": blobstore.NewMemory(),
	} {
		t.Run(name, func(t *testing.T) {
			rc, _, err := c.BlobStreamVerifiedContext(context.Background(), "r/blob", d)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			n, err := sink.PutStream(d, rc)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(content)) {
				t.Fatalf("streamed %d bytes, want %d", n, len(content))
			}
			if !sink.Has(d) {
				t.Fatal("blob missing from sink")
			}
		})
	}
}

func TestPushUploadStreams(t *testing.T) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/up", false)
	srv := httptest.NewServer(reg)
	defer srv.Close()
	content := bytes.Repeat([]byte("uploaded"), 4_000)
	c := &Client{Base: srv.URL}
	d, err := c.PushBlobContext(context.Background(), "r/up", content)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Blobs().Has(d) {
		t.Fatal("uploaded blob missing")
	}
	// A corrupt upload is rejected with the digest error code.
	req, _ := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v2/r/up/blobs/uploads/?digest=%s", srv.URL, digest.FromBytes([]byte("else"))),
		bytes.NewReader(content))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "DIGEST_INVALID") {
		t.Fatalf("corrupt upload: status %d body %s", resp.StatusCode, body)
	}
}

// blobVerified reads a whole blob through the verifying stream.
func blobVerified(c *Client, name string, d digest.Digest) ([]byte, error) {
	rc, _, err := c.BlobStreamVerifiedContext(context.Background(), name, d)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
