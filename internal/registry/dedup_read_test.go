package registry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/dedupstore"
	"repro/internal/digest"
	"repro/internal/tarutil"
)

// noisyLayer is a gzip layer of nFiles incompressible files of fileSize
// bytes; salt makes otherwise equal layers distinct blobs.
func noisyLayer(t *testing.T, nFiles, fileSize int, salt uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := tarutil.NewGzipBuilder(&buf)
	content := make([]byte, fileSize)
	seed := salt*0x9e3779b97f4a7c15 + 1
	for i := 0; i < nFiles; i++ {
		for j := range content {
			seed = seed*6364136223846793005 + 1442695040888963407
			content[j] = byte(seed >> 56)
		}
		if err := b.File(fmt.Sprintf("data/f%03d.bin", i), content); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dedupRegistry serves layers out of a dedupstore with a reconstruction
// cache of cacheBytes (0: none).
func dedupRegistry(t *testing.T, cacheBytes int64, layers ...[]byte) (*httptest.Server, []digest.Digest) {
	t.Helper()
	store := dedupstore.NewWithConfig(dedupstore.NewMemoryPool(0), dedupstore.Config{CacheBytes: cacheBytes})
	reg := New(store)
	reg.CreateRepo("r/blob", false)
	var ds []digest.Digest
	for _, l := range layers {
		d, err := reg.PushBlob(l)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	if n := store.Stats().Layers; n != len(layers) {
		t.Fatalf("%d of %d layers stored as recipes, the rest verbatim", n, len(layers))
	}
	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	return srv, ds
}

// TestRangesOverReconstructedBlobs: ranged GETs of a blob the store has to
// reassemble — a skipped prefix (the pull adapter), a bounded middle, and
// bytes=0- (the full body, pushed) — return the stored bytes, cold and from
// the reconstruction cache.
func TestRangesOverReconstructedBlobs(t *testing.T) {
	layer := noisyLayer(t, 24, 8<<10, 1)
	size := len(layer)
	for _, cacheBytes := range []int64{0, 8 << 20} {
		srv, ds := dedupRegistry(t, cacheBytes, layer)
		url := srv.URL + "/v2/r/blob/blobs/" + ds[0].String()
		cases := []struct {
			spec         string
			status       int
			from, to     int
			contentRange string
		}{
			{"bytes=70000-", http.StatusPartialContent, 70000, size, fmt.Sprintf("bytes 70000-%d/%d", size-1, size)},
			{"bytes=100-40099", http.StatusPartialContent, 100, 40100, fmt.Sprintf("bytes 100-40099/%d", size)},
			{"bytes=0-99", http.StatusPartialContent, 0, 100, fmt.Sprintf("bytes 0-99/%d", size)},
			{"bytes=0-", http.StatusOK, 0, size, ""},
			{"", http.StatusOK, 0, size, ""},
		}
		for _, c := range cases {
			req, _ := http.NewRequest(http.MethodGet, url, nil)
			if c.spec != "" {
				req.Header.Set("Range", c.spec)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("cache %d, %q: reading body: %v", cacheBytes, c.spec, err)
			}
			if resp.StatusCode != c.status || resp.Header.Get("Content-Range") != c.contentRange {
				t.Errorf("cache %d, %q: status %d, Content-Range %q; want %d, %q",
					cacheBytes, c.spec, resp.StatusCode, resp.Header.Get("Content-Range"), c.status, c.contentRange)
			}
			if !bytes.Equal(body, layer[c.from:c.to]) {
				t.Errorf("cache %d, %q: got %d bytes, want layer[%d:%d]", cacheBytes, c.spec, len(body), c.from, c.to)
			}
		}
	}
}

// bytesPerCall is -benchmem's B/op for f: heap bytes allocated per call.
func bytesPerCall(calls int, f func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// TestReconstructedGetAllocation guards the whole serving path of a cold
// pull, client and server of a loopback GET counted together: beyond the
// one copy the reconstruction cache keeps of a blob it admits, a pull
// allocates request bookkeeping — no per-response copy buffer, no
// admission buffer for a blob the cache would only throw away.
func TestReconstructedGetAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P, so that client and server find each other's pooled buffers:
	// a sync.Pool keeps the last Put private to the P that made it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pulls = 6
	layers := make([][]byte, pulls+1)
	var size uint64
	for i := range layers {
		layers[i] = noisyLayer(t, 16, 16<<10, uint64(i))
		size = max(size, uint64(len(layers[i])))
	}
	pull := func(srv *httptest.Server, d digest.Digest) {
		resp, err := http.Get(srv.URL + "/v2/r/blob/blobs/" + d.String())
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != resp.ContentLength {
			t.Fatalf("pulled %d of %d bytes, %v", n, resp.ContentLength, err)
		}
	}

	// A cache too small to admit the blob: it is not buffered at all.
	srv, ds := dedupRegistry(t, 64<<10, layers[0])
	pull(srv, ds[0])
	got := bytesPerCall(pulls, func(int) { pull(srv, ds[0]) })
	t.Logf("%d-byte blob, not admissible: %d B/pull", size, got)
	if got >= 16<<10 {
		t.Errorf("a cold pull the cache cannot admit allocates %d B, want < 16 KiB", got)
	}

	// A cache that admits it: every pull is of a blob not pulled before,
	// so each is a reconstruction and an admission.
	srv, ds = dedupRegistry(t, 64<<20, layers...)
	pull(srv, ds[pulls])
	got = bytesPerCall(pulls, func(i int) { pull(srv, ds[i]) })
	t.Logf("%d-byte blob, admitted: %d B/pull", size, got)
	// The kept copy is a large allocation: whole 8 KiB pages.
	if kept := (size + 8191) &^ 8191; got >= kept+16<<10 {
		t.Errorf("a cold pull the cache admits allocates %d B, want < the %d-byte copy + 16 KiB", got, kept)
	}
}
