package analytics

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/digest"
	"repro/internal/registry"
	"repro/internal/tarutil"
)

// bytesPerCall is -benchmem's B/op for f: heap bytes allocated per call,
// pools warmed by one call first.
func bytesPerCall(calls int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// oneFileLayer is a gzip layer holding a single file of the given size.
func oneFileLayer(t *testing.T, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	b, err := tarutil.NewGzipBuilder(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 31)
	}
	if err := b.File("data.bin", body); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWalkAllocationIndependentOfLayerSize guards the byte walker's
// working memory: prefix, copy buffer, hasher, inflater and read buffer
// all come from pools, so what a walk allocates is its result — a few
// hundred bytes for a one-file layer, whatever the file's size. With the
// scratch arrays as locals this was 36 KiB more per call.
func TestWalkAllocationIndependentOfLayerSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, size := range []int{1 << 10, 1 << 20} {
		layer := oneFileLayer(t, size)
		d := digest.FromBytes(layer)
		got := bytesPerCall(50, func() {
			if _, err := analyzer.WalkLayerReader(d, bytes.NewReader(layer)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte file: %d B/walk", size, got)
		if got >= 8<<10 {
			t.Errorf("walking a layer with one %d-byte file allocates %d B, want < 8 KiB", size, got)
		}
	}
}

// TestClientUploadDoesNotCopyTheBlob guards the push client's request
// body: a 1 MiB upload must allocate what a 64 KiB one does (the server
// here discards the body, so the difference is the client's alone).
func TestClientUploadDoesNotCopyTheBlob(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()
	c := &registry.Client{Base: srv.URL}
	perPush := func(size int) uint64 {
		blob := make([]byte, size)
		return bytesPerCall(30, func() {
			if _, err := c.PushBlobContext(context.Background(), "alice/app", blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perPush(64<<10), perPush(1<<20)
	t.Logf("64 KiB blob: %d B/push; 1 MiB blob: %d B/push", small, large)
	if large > small+4<<10 {
		t.Errorf("pushing 1 MiB allocates %d B, 64 KiB allocates %d B: the body is being copied", large, small)
	}
}
