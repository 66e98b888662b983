package registry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

func rangeSetup(t *testing.T) (*httptest.Server, *Client, digest.Digest, []byte) {
	t.Helper()
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("r/blob", false)
	content := make([]byte, 10_000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	d, err := reg.PushBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	return srv, &Client{Base: srv.URL}, d, content
}

func TestBlobRangeResume(t *testing.T) {
	_, c, d, _ := rangeSetup(t)
	// Simulate an interrupted pull: read the first 3000 bytes, then
	// resume from there.
	rc, _, err := c.BlobContext(context.Background(), "r/blob", d)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 3000)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	rest, err := c.BlobRangeContext(context.Background(), "r/blob", d, 3000)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	tail, err := io.ReadAll(rest)
	if err != nil {
		t.Fatal(err)
	}
	whole := append(head, tail...)
	if digest.FromBytes(whole) != d {
		t.Fatal("resumed download does not reassemble the blob")
	}
}

func TestBlobRangeFromZero(t *testing.T) {
	_, c, d, content := rangeSetup(t)
	rc, err := c.BlobRangeContext(context.Background(), "r/blob", d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, _ := io.ReadAll(rc)
	if len(got) != len(content) {
		t.Fatalf("full range read %d bytes, want %d", len(got), len(content))
	}
}

func TestRangeHeadersOnWire(t *testing.T) {
	srv, _, d, content := rangeSetup(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/r/blob/blobs/"+d.String(), nil)
	req.Header.Set("Range", "bytes=100-199")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d, want 206", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 100-199/%d", len(content)) {
		t.Fatalf("Content-Range = %q", cr)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 100 || body[0] != content[100] || body[99] != content[199] {
		t.Fatal("partial body wrong")
	}
}

func TestRangeUnsatisfiable(t *testing.T) {
	srv, _, d, content := rangeSetup(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/r/blob/blobs/"+d.String(), nil)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(content)+5))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("status %d, want 416", resp.StatusCode)
	}
}

func TestParseRangeTable(t *testing.T) {
	cases := []struct {
		h             string
		size          int64
		start, length int64
		ok            bool
	}{
		{"", 100, 0, 100, true},
		{"bytes=0-", 100, 0, 100, true},
		{"bytes=10-", 100, 10, 90, true},
		{"bytes=10-19", 100, 10, 10, true},
		{"bytes=10-999", 100, 10, 90, true}, // end clamped
		{"bytes=100-", 100, 0, 0, false},    // past the end
		{"bytes=-5", 100, 0, 100, true},     // suffix form unsupported: whole blob
		{"bytes=5-3", 100, 0, 0, false},     // inverted
		{"bytes=abc-", 100, 0, 0, false},
		{"bytes=1-2,5-6", 100, 0, 100, true}, // multi-range unsupported: whole blob
		{"items=1-2", 100, 0, 100, true},     // foreign unit: whole blob
		{"bytes=0-9", -1, 0, -1, true},       // unknown size: whole blob
		{"bytes=0-", 0, 0, 0, false},         // nothing to range over
		{"", 0, 0, 0, true},
	}
	for _, c := range cases {
		start, length, ok := parseRange(c.h, c.size)
		if start != c.start || length != c.length || ok != c.ok {
			t.Errorf("parseRange(%q, %d) = (%d, %d, %v), want (%d, %d, %v)",
				c.h, c.size, start, length, ok, c.start, c.length, c.ok)
		}
	}
}

// FuzzParseRange: whatever the header and size, parseRange does not panic,
// and a range it accepts is either the whole blob — which is how it
// answers an absent or unsupported header, an empty blob, or an unknown
// (negative) size — or a non-empty slice inside the blob. The seed corpus
// is in testdata/fuzz/FuzzParseRange.
func FuzzParseRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string, size int64) {
		start, length, ok := parseRange(h, size)
		if !ok || start == 0 && length == size {
			return
		}
		if start < 0 || length < 1 || start > size-length {
			t.Fatalf("parseRange(%q, %d) = (%d, %d, true): not a slice of the blob", h, size, start, length)
		}
	})
}

// Property: any valid split point reassembles the blob byte-exactly.
func TestQuickRangeReassembly(t *testing.T) {
	_, c, d, content := rangeSetup(t)
	f := func(cutSeed uint16) bool {
		cut := int64(cutSeed) % int64(len(content))
		rc, err := c.BlobRangeContext(context.Background(), "r/blob", d, cut)
		if err != nil {
			return false
		}
		defer rc.Close()
		tail, err := io.ReadAll(rc)
		if err != nil {
			return false
		}
		whole := append(append([]byte{}, content[:cut]...), tail...)
		return digest.FromBytes(whole) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// getCountingStore counts blob opens.
type getCountingStore struct {
	blobstore.Store
	gets int
}

func (s *getCountingStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	s.gets++
	return s.Store.Get(d)
}

// TestBlobHeadNeverOpensTheBlob: HEAD is answered from Stat — on a
// reconstructing backend an open is a recipe inflate and a goroutine —
// with exactly the headers and status the GET sends, ranges included.
func TestBlobHeadNeverOpensTheBlob(t *testing.T) {
	store := &getCountingStore{Store: blobstore.NewMemory()}
	reg := New(store)
	reg.CreateRepo("r/blob", false)
	d, err := reg.PushBlob(make([]byte, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg)
	defer srv.Close()

	do := func(method, ref, rng string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/v2/r/blob/blobs/"+ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	missing := digest.FromBytes([]byte("never stored"))
	cases := []struct {
		name, ref, rng string
		status         int
	}{
		{"whole blob", d.String(), "", http.StatusOK},
		{"suffix range", d.String(), "bytes=4000-", http.StatusPartialContent},
		{"closed range", d.String(), "bytes=100-199", http.StatusPartialContent},
		{"unsatisfiable range", d.String(), "bytes=20000-", http.StatusRequestedRangeNotSatisfiable},
		{"unknown blob", missing.String(), "", http.StatusNotFound},
	}
	for _, c := range cases {
		get := do(http.MethodGet, c.ref, c.rng)
		before := store.gets
		head := do(http.MethodHead, c.ref, c.rng)
		if store.gets != before {
			t.Errorf("%s: HEAD opened the blob %d times", c.name, store.gets-before)
		}
		if head.StatusCode != c.status || get.StatusCode != c.status {
			t.Errorf("%s: HEAD %d, GET %d, want %d", c.name, head.StatusCode, get.StatusCode, c.status)
		}
		for _, h := range []string{"Docker-Content-Digest", "Accept-Ranges", "Content-Length", "Content-Range", "Content-Type"} {
			if hv, gv := head.Header.Get(h), get.Header.Get(h); hv != gv {
				t.Errorf("%s: %s is %q on HEAD, %q on GET", c.name, h, hv, gv)
			}
		}
	}
}
