package analytics

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/registry"
	"repro/internal/tarutil"
)

// BenchmarkLivePush measures one monolithic HTTP layer push into a
// registry on a Memory store with the live service hooked: upload, store,
// and the hook's walk of the layer, answered with the 201. The layer is
// deleted between iterations, off the clock, so every push stores and
// walks it afresh.
func BenchmarkLivePush(b *testing.B) {
	for _, files := range []int{8, 64} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			layer := benchLayer(b, files, 4<<10)
			d := digest.FromBytes(layer)
			store := blobstore.NewMemory()
			reg := registry.New(store)
			reg.CreateRepo("alice/app", false)
			reg.SetIngest(New(store, nil))
			srv := httptest.NewServer(reg)
			defer srv.Close()
			c := &registry.Client{Base: srv.URL}

			b.SetBytes(int64(len(layer)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.PushBlobContext(context.Background(), "alice/app", layer); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := store.Delete(d); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// benchLayer is a gzip layer of n files of size bytes each, random text
// over a 16-letter alphabet (about 2x compressible).
func benchLayer(b *testing.B, n, size int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	var buf bytes.Buffer
	tb := tarutil.NewGzipBuilder(&buf)
	body := make([]byte, size)
	for i := 0; i < n; i++ {
		for j := range body {
			body[j] = 'a' + byte(rng.Intn(16))
		}
		if err := tb.File(fmt.Sprintf("app/f%03d.bin", i), body); err != nil {
			b.Fatal(err)
		}
	}
	if err := tb.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}
