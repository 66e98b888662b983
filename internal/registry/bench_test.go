package registry

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/httpx"
	"repro/internal/manifest"
)

// benchRegistry builds a registry with n single-layer images of layerSize
// bytes each and serves it, counting the connections clients open.
func benchRegistry(b *testing.B, n int, layerSize int) (*httptest.Server, []string, *atomic.Int64) {
	b.Helper()
	reg, repos := benchPopulated(b, n, layerSize)
	srv, conns := countingServer(b, reg)
	return srv, repos, conns
}

// countingServer serves h and counts the TCP connections clients open:
// a transport that cannot keep its connections shows up as a dial per
// request.
func countingServer(b *testing.B, h http.Handler) (*httptest.Server, *atomic.Int64) {
	b.Helper()
	conns := new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	b.Cleanup(srv.Close)
	return srv, conns
}

// benchClient is a client on the shared tuned transport, the one every
// client in the repo ships with (httptest's srv.Client() is not).
func benchClient(srv *httptest.Server) *Client {
	return &Client{Base: srv.URL, HTTP: &http.Client{Transport: httpx.NewTransport()}}
}

// benchPopulated builds the registry without serving it.
func benchPopulated(b *testing.B, n int, layerSize int) (*Registry, []string) {
	b.Helper()
	reg := New(blobstore.NewMemory())
	rng := rand.New(rand.NewSource(1))
	repos := make([]string, n)
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	configDg, err := reg.PushBlob(config)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		layer := make([]byte, layerSize)
		rng.Read(layer)
		layerDg, err := reg.PushBlob(layer)
		if err != nil {
			b.Fatal(err)
		}
		m, err := manifest.New(
			manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: configDg},
			[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(layerSize), Digest: layerDg}},
		)
		if err != nil {
			b.Fatal(err)
		}
		name := "bench/app" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		reg.CreateRepo(name, false)
		if _, err := reg.PushManifest(name, "latest", m); err != nil {
			b.Fatal(err)
		}
		repos[i] = name
	}
	return reg, repos
}

// BenchmarkHTTPPull measures full image pulls (manifest + layer, verified)
// through the HTTP stack with parallel clients on the shared transport.
func BenchmarkHTTPPull(b *testing.B) {
	const layerSize = 64 << 10
	srv, repos, conns := benchRegistry(b, 64, layerSize)
	b.SetBytes(layerSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := benchClient(srv)
		i := 0
		for pb.Next() {
			repo := repos[i%len(repos)]
			i++
			m, _, err := c.ManifestContext(context.Background(), repo, "latest")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := blobVerified(c, repo, m.Layers[0].Digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(conns.Load())/float64(b.N), "conns/op")
}

// BenchmarkHTTPManifestOnly isolates the manifest path (the hot request in
// real registry traces).
func BenchmarkHTTPManifestOnly(b *testing.B) {
	srv, repos, conns := benchRegistry(b, 64, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := benchClient(srv)
		i := 0
		for pb.Next() {
			if _, _, err := c.ManifestContext(context.Background(), repos[i%len(repos)], "latest"); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.ReportMetric(float64(conns.Load())/float64(b.N), "conns/op")
}

// BenchmarkHTTPPush measures monolithic blob uploads through the stack. A
// 64 KiB blob just overflows the transport's write buffer once the request
// headers are in it, so each push pays the socket's copy buffer for its tail.
func BenchmarkHTTPPush(b *testing.B) {
	reg := New(blobstore.NewMemory())
	reg.CreateRepo("bench/push", false)
	srv, conns := countingServer(b, reg)
	c := benchClient(srv)
	content := make([]byte, 64<<10)
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		content[0] = byte(i)
		content[1] = byte(i >> 8)
		content[2] = byte(i >> 16)
		if _, err := c.PushBlobContext(context.Background(), "bench/push", content); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conns.Load())/float64(b.N), "conns/op")
}

// BenchmarkTransportIdleConns quantifies the idle-connection fallback fix:
// a shared client with http.DefaultTransport's 2-idle-conns-per-host cap
// versus the tuned httpx transport, under a 16-way fan-out of blob pulls
// against one host — the shape of every download/load-generation worker
// pool in this repo. Each worker "thinks" for ~1ms between pulls (the
// downloader hashes and walks each layer it fetches), so its connection
// sits idle between requests: with the 2-conn cap the pool overflows, all
// but two workers' connections are torn down, and every following request
// pays a fresh TCP dial. The conns/op metric makes the churn explicit.
func BenchmarkTransportIdleConns(b *testing.B) {
	const layerSize = 16 << 10
	for _, tc := range []struct {
		name   string
		client func() *http.Client
	}{
		{"default-2-idle", func() *http.Client {
			// http.DefaultClient's effective per-host idle cap.
			return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
		}},
		{"tuned", func() *http.Client {
			return &http.Client{Transport: httpx.NewTransport()}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// Idle-cap churn shows up as a reconnect per request, wasting
			// handshakes and burning client ports.
			srv, repos, conns := benchRegistry(b, 16, layerSize)
			client := tc.client()
			b.SetBytes(layerSize)
			b.ReportAllocs()
			b.SetParallelism(16) // 16 × GOMAXPROCS goroutines: a real fan-out
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := &Client{Base: srv.URL, HTTP: client}
				i := 0
				for pb.Next() {
					repo := repos[i%len(repos)]
					i++
					m, _, err := c.ManifestContext(context.Background(), repo, "latest")
					if err != nil {
						b.Fatal(err)
					}
					if _, err := blobVerified(c, repo, m.Layers[0].Digest); err != nil {
						b.Fatal(err)
					}
					// Post-pull work (hash/walk in the real pipeline): the
					// connection idles here, which is when the cap evicts it.
					time.Sleep(time.Millisecond)
				}
			})
			b.ReportMetric(float64(conns.Load())/float64(b.N), "conns/op")
		})
	}
}
