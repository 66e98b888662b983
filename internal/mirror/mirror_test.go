package mirror

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/dedupstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/popularity"
	"repro/internal/registry"
	"repro/internal/tarutil"
)

// image is one pushed repo:tag with its content handles.
type image struct {
	repo     string
	layer    []byte
	layerD   digest.Digest
	config   []byte
	configD  digest.Digest
	manifest digest.Digest
}

// pushImage stores a one-layer image into the origin registry.
func pushImage(t *testing.T, reg *registry.Registry, repo string, layer []byte, private bool) image {
	t.Helper()
	config := []byte(fmt.Sprintf(`{"architecture":"amd64","os":"linux","repo":%q}`, repo))
	ld, err := reg.PushBlob(layer)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := reg.PushBlob(config)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: cd},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: ld}},
	)
	if err != nil {
		t.Fatal(err)
	}
	reg.CreateRepo(repo, private)
	md, err := reg.PushManifest(repo, "latest", m)
	if err != nil {
		t.Fatal(err)
	}
	return image{repo: repo, layer: layer, layerD: ld, config: config, configD: cd, manifest: md}
}

// blobOfSize yields deterministic pseudo-random content.
func blobOfSize(seed, size int) []byte {
	b := make([]byte, size)
	state := uint64(seed)*2654435761 + 1
	for i := range b {
		state = state*6364136223846793005 + 1442695040888963407
		b[i] = byte(state >> 33)
	}
	return b
}

// mirrorSetup stands up origin (counting requests), cache, and mirror.
func mirrorSetup(t *testing.T, cacheBytes int64) (*registry.Registry, *atomic.Int64, *cache.Cache, *httptest.Server) {
	t.Helper()
	return mirrorSetupOn(t, blobstore.NewMemory(), cacheBytes)
}

// mirrorSetupOn is mirrorSetup with the origin registry on the given store.
func mirrorSetupOn(t *testing.T, store blobstore.Store, cacheBytes int64) (*registry.Registry, *atomic.Int64, *cache.Cache, *httptest.Server) {
	t.Helper()
	reg := registry.New(store)
	var originReqs atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		originReqs.Add(1)
		reg.ServeHTTP(w, req)
	}))
	t.Cleanup(origin.Close)
	c := cache.New(blobstore.NewMemory(), cacheBytes)
	front := httptest.NewServer(New(&registry.Client{Base: origin.URL}, c))
	t.Cleanup(front.Close)
	return reg, &originReqs, c, front
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func TestPingAndStats(t *testing.T) {
	_, _, _, front := mirrorSetup(t, 1<<20)
	resp, err := http.Get(front.URL + "/v2/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping status = %d", resp.StatusCode)
	}
	if v := resp.Header.Get("Docker-Distribution-API-Version"); v != "registry/2.0" {
		t.Fatalf("version header = %q", v)
	}
	var stats struct {
		Budget   int64   `json:"budget"`
		HitRatio float64 `json:"hit_ratio"`
	}
	if err := json.Unmarshal(mustGet(t, front.URL+"/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Budget != 1<<20 {
		t.Fatalf("stats budget = %d, want %d", stats.Budget, 1<<20)
	}
}

// TestBlobColdThenWarm: the first pull fills from origin, the second is
// served from cache without touching the origin.
func TestBlobColdThenWarm(t *testing.T) {
	reg, _, c, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "library/app", blobOfSize(1, 64<<10), false)

	url := front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String()
	for i := 0; i < 2; i++ {
		got := mustGet(t, url)
		if string(got) != string(img.layer) {
			t.Fatalf("pull %d returned wrong bytes (%d vs %d)", i, len(got), len(img.layer))
		}
	}
	if n := reg.Stats().BlobGets; n != 1 {
		t.Fatalf("origin blob gets = %d, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss 1 hit", s)
	}
}

// TestConcurrentColdPullsSingleOriginFetch is the acceptance criterion: N
// concurrent cold pulls of the same layer must produce exactly one origin
// blob fetch, with every client receiving correct bytes.
func TestConcurrentColdPullsSingleOriginFetch(t *testing.T) {
	reg, _, _, front := mirrorSetup(t, 8<<20)
	img := pushImage(t, reg, "library/hot", blobOfSize(2, 256<<10), false)
	url := front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String()

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if string(body) != string(img.layer) {
				errs <- fmt.Errorf("wrong bytes: %d vs %d", len(body), len(img.layer))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := reg.Stats().BlobGets; n != 1 {
		t.Fatalf("origin blob gets = %d, want exactly 1", n)
	}
}

// TestRangeRequests: range reads work cold (miss teeing into the cache,
// full blob admitted afterwards) and warm, and unsatisfiable offsets 416.
func TestRangeRequests(t *testing.T) {
	reg, _, c, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "library/ranged", blobOfSize(3, 96<<10), false)
	url := front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String()

	getRange := func(spec string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Range", spec)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Cold range: served mid-fill.
	resp, body := getRange("bytes=1000-2999")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("cold range status = %d", resp.StatusCode)
	}
	if string(body) != string(img.layer[1000:3000]) {
		t.Fatal("cold range returned wrong bytes")
	}
	// The whole blob must be admitted despite the partial read. Admission
	// is asynchronous to the response (serveBlob's contract: the handler
	// drains the tail into the cache after the client has its full
	// Content-Length), so wait for it, bounded.
	for deadline := time.Now().Add(5 * time.Second); !c.Contains(img.layerD); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blob not admitted within 5s of ranged cold pull")
		}
	}
	if n := reg.Stats().BlobGets; n != 1 {
		t.Fatalf("origin blob gets = %d, want 1", n)
	}

	// Warm range: served from cache, origin untouched.
	resp, body = getRange("bytes=90112-")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("warm range status = %d", resp.StatusCode)
	}
	if string(body) != string(img.layer[90112:]) {
		t.Fatal("warm range returned wrong bytes")
	}
	if n := reg.Stats().BlobGets; n != 1 {
		t.Fatalf("origin blob gets after warm range = %d, want 1", n)
	}

	// Unsatisfiable.
	resp, _ = getRange(fmt.Sprintf("bytes=%d-", len(img.layer)))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("unsatisfiable range status = %d, want 416", resp.StatusCode)
	}
}

// TestNegative404: a digest the origin does not have is fetched from the
// origin once; the repeat is answered from the negative cache.
func TestNegative404(t *testing.T) {
	reg, originReqs, c, front := mirrorSetup(t, 1<<20)
	pushImage(t, reg, "library/app", blobOfSize(4, 4<<10), false)
	absent := digest.FromBytes([]byte("never pushed"))
	url := front.URL + "/v2/library/app/blobs/" + absent.String()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("request %d status = %d, want 404", i, resp.StatusCode)
		}
	}
	if n := originReqs.Load(); n != 1 {
		t.Fatalf("origin requests = %d, want 1 (second 404 should be negative-cached)", n)
	}
	s := c.Stats()
	if s.NegPuts != 1 || s.NegHits != 1 {
		t.Fatalf("negative stats = %+v, want 1 put 1 hit", s)
	}
}

// TestManifestTagRevalidatesDigestCached: by-tag manifest requests always
// revalidate against the origin (tags move), but the fetched bytes are
// admitted by digest so by-digest requests never touch the origin.
func TestManifestTagRevalidatesDigestCached(t *testing.T) {
	reg, originReqs, _, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "library/app", blobOfSize(5, 4<<10), false)

	tagURL := front.URL + "/v2/" + img.repo + "/manifests/latest"
	var tagBodies [][]byte
	for i := 0; i < 2; i++ {
		tagBodies = append(tagBodies, mustGet(t, tagURL))
	}
	afterTags := originReqs.Load()
	if afterTags != 2 {
		t.Fatalf("origin requests after 2 tag pulls = %d, want 2 (tags are never cached)", afterTags)
	}
	if string(tagBodies[0]) != string(tagBodies[1]) {
		t.Fatal("tag pulls returned different bytes")
	}
	if got := digest.FromBytes(tagBodies[0]); got != img.manifest {
		t.Fatalf("manifest digest = %s, want %s (bytes must be origin-verbatim)", got, img.manifest)
	}

	digURL := front.URL + "/v2/" + img.repo + "/manifests/" + img.manifest.String()
	for i := 0; i < 2; i++ {
		body := mustGet(t, digURL)
		if string(body) != string(tagBodies[0]) {
			t.Fatal("by-digest manifest differs from by-tag bytes")
		}
	}
	if n := originReqs.Load(); n != afterTags {
		t.Fatalf("by-digest pulls reached origin (%d -> %d requests), want cache hits", afterTags, n)
	}
}

// TestHeadBlob: warm HEAD answers from cache; cold HEAD proxies the stat
// without pulling the blob into the cache.
func TestHeadBlob(t *testing.T) {
	reg, _, c, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "library/app", blobOfSize(6, 32<<10), false)
	url := front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String()

	resp, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold HEAD status = %d", resp.StatusCode)
	}
	if got := resp.ContentLength; got != int64(len(img.layer)) {
		t.Fatalf("cold HEAD length = %d, want %d", got, len(img.layer))
	}
	if c.Contains(img.layerD) {
		t.Fatal("HEAD must not fill the cache")
	}
	if n := reg.Stats().BlobGets; n != 0 {
		t.Fatalf("origin blob gets after HEAD = %d, want 0", n)
	}

	mustGet(t, url)
	resp, err = http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.ContentLength; got != int64(len(img.layer)) {
		t.Fatalf("warm HEAD length = %d, want %d", got, len(img.layer))
	}
}

// TestUnauthorizedPropagates: a private origin repo yields 401 through the
// mirror, with the WWW-Authenticate challenge intact.
func TestUnauthorizedPropagates(t *testing.T) {
	reg, _, _, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "corp/secret", blobOfSize(7, 4<<10), true)

	resp, err := http.Get(front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate challenge")
	}
}

// pullThrough replays one image pull through the mirror the way a client
// would: manifest by tag, then config and layer blobs.
func pullThrough(t *testing.T, base string, img image) {
	t.Helper()
	raw := mustGet(t, base+"/v2/"+img.repo+"/manifests/latest")
	m, err := manifest.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	refs := append([]manifest.Descriptor{m.Config}, m.Layers...)
	for _, ref := range refs {
		body := mustGet(t, base+"/v2/"+img.repo+"/blobs/"+ref.Digest.String())
		if int64(len(body)) != ref.Size {
			t.Fatalf("blob %s: got %d bytes, want %d", ref.Digest.Short(), len(body), ref.Size)
		}
	}
}

// TestHitRatioPopularityTrace is the acceptance experiment: with a cache
// budget of 10% of total blob bytes, replaying a popularity-weighted pull
// trace (Zipf-like exponent 1.5, the ballpark the paper measures for Hub
// pulls) through the mirror must land a ≥70% blob hit ratio.
func TestHitRatioPopularityTrace(t *testing.T) {
	const (
		repos     = 60
		layerSize = 32 << 10
		pulls     = 3000
	)
	reg := registry.New(blobstore.NewMemory())
	origin := httptest.NewServer(reg)
	t.Cleanup(origin.Close)

	images := make([]image, repos)
	var blobBytes int64
	for i := range images {
		images[i] = pushImage(t, reg, fmt.Sprintf("library/repo-%02d", i), blobOfSize(100+i, layerSize), false)
		blobBytes += int64(len(images[i].layer) + len(images[i].config))
	}

	budget := blobBytes / 10
	c := cache.New(blobstore.NewMemory(), budget)
	front := httptest.NewServer(New(&registry.Client{Base: origin.URL}, c))
	t.Cleanup(front.Close)

	// Popularity weights ∝ rank^-1.8 — the heavy skew the paper measures
	// for Hub pull counts; Trace draws proportionally.
	weights := make([]int64, repos)
	for i := range weights {
		weights[i] = int64(math.Pow(float64(i+1), -1.8) * 1e9)
	}
	trace, err := popularity.Trace(weights, pulls, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range trace {
		pullThrough(t, front.URL, images[idx])
	}

	s := c.Stats()
	ratio := s.HitRatio()
	t.Logf("budget=%d (%.1f%% of %d blob bytes) hits=%d coalesced=%d misses=%d evictions=%d declined=%d ratio=%.3f",
		budget, 100*float64(budget)/float64(blobBytes), blobBytes,
		s.Hits, s.Coalesced, s.Misses, s.Evictions, s.Declined, ratio)
	if ratio < 0.70 {
		t.Fatalf("hit ratio = %.3f, want >= 0.70", ratio)
	}
	if s.Evictions == 0 {
		t.Fatal("expected evictions: budget is 10x smaller than the working set")
	}
	if s.Declined == 0 {
		t.Fatal("expected declines: the long tail should not displace the head")
	}
	if s.Used > s.Budget {
		t.Fatalf("cache over budget: used %d > %d", s.Used, s.Budget)
	}
}

// TestTagsListProxied: tag listings pass straight through to the origin.
func TestTagsListProxied(t *testing.T) {
	reg, _, _, front := mirrorSetup(t, 1<<20)
	img := pushImage(t, reg, "library/app", blobOfSize(8, 4<<10), false)

	var body struct {
		Name string   `json:"name"`
		Tags []string `json:"tags"`
	}
	if err := json.Unmarshal(mustGet(t, front.URL+"/v2/"+img.repo+"/tags/list"), &body); err != nil {
		t.Fatal(err)
	}
	if body.Name != img.repo || len(body.Tags) != 1 || body.Tags[0] != "latest" {
		t.Fatalf("tags/list = %+v", body)
	}
}

// TestPushRejected: the mirror is read-only; pushes get 405.
func TestPushRejected(t *testing.T) {
	_, _, _, front := mirrorSetup(t, 1<<20)
	req, _ := http.NewRequest(http.MethodPut, front.URL+"/v2/library/app/manifests/latest", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT status = %d, want 405", resp.StatusCode)
	}
}

// gzipLayer is a real tar.gz layer of nFiles incompressible files, which a
// dedup-backed origin stores as a recipe and reassembles on every pull.
func gzipLayer(t *testing.T, seed, nFiles, fileSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := tarutil.NewGzipBuilder(&buf)
	for i := 0; i < nFiles; i++ {
		if err := b.File(fmt.Sprintf("data/f%03d.bin", i), blobOfSize(seed*1000+i, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRangesOverDedupOrigin: full and ranged pulls through the mirror of
// blobs the origin has to reconstruct return the stored bytes and fill the
// cache, as over a plain origin.
func TestRangesOverDedupOrigin(t *testing.T) {
	origin := dedupstore.NewWithConfig(dedupstore.NewMemoryPool(0), dedupstore.Config{})
	reg, _, c, front := mirrorSetupOn(t, origin, 8<<20)
	admitted := func(d digest.Digest) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !c.Contains(d); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not admitted within 5s of a cold pull", d.Short())
			}
		}
	}
	get := func(img image, spec string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v2/"+img.repo+"/blobs/"+img.layerD.String(), nil)
		req.Header.Set("Range", spec)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	full := pushImage(t, reg, "library/full", gzipLayer(t, 1, 12, 8<<10), false)
	ranged := pushImage(t, reg, "library/ranged", gzipLayer(t, 2, 12, 8<<10), false)
	if n := origin.Stats().Layers; n != 2 {
		t.Fatalf("origin stored %d of 2 layers as recipes, the rest verbatim", n)
	}

	// bytes=0- is the whole blob: a 200, copied to EOF, admitted.
	resp, body := get(full, "bytes=0-")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Range") != "" || !bytes.Equal(body, full.layer) {
		t.Fatalf("bytes=0- cold: status %d, Content-Range %q, %d bytes; want 200 and the %d-byte layer",
			resp.StatusCode, resp.Header.Get("Content-Range"), len(body), len(full.layer))
	}
	admitted(full.layerD)

	// A cold range past a prefix, then a warm one, over the other layer.
	size := len(ranged.layer)
	for _, warm := range []bool{false, true} {
		resp, body = get(ranged, "bytes=50000-59999")
		want := fmt.Sprintf("bytes 50000-59999/%d", size)
		if resp.StatusCode != http.StatusPartialContent || resp.Header.Get("Content-Range") != want ||
			!bytes.Equal(body, ranged.layer[50000:60000]) {
			t.Fatalf("range (warm=%v): status %d, Content-Range %q, %d bytes; want 206, %q and layer[50000:60000]",
				warm, resp.StatusCode, resp.Header.Get("Content-Range"), len(body), want)
		}
		admitted(ranged.layerD)
	}
	if n := reg.Stats().BlobGets; n != 2 {
		t.Fatalf("origin blob gets = %d, want 2 (one cold fill per layer)", n)
	}
}

// TestCachedBlobGetAllocation guards the hit path, client and server of a
// loopback GET counted together: a cached blob pushes itself into the
// response in one Write. Behind io.CopyN's LimitedReader it went through
// the response's ReadFrom, which allocates a copy buffer per request.
func TestCachedBlobGetAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P, so that client and server find each other's pooled buffers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg, _, _, front := mirrorSetup(t, 8<<20)
	img := pushImage(t, reg, "library/hot", blobOfSize(9, 256<<10), false)
	url := front.URL + "/v2/" + img.repo + "/blobs/" + img.layerD.String()
	pull := func() {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(img.layer)) {
			t.Fatalf("pulled %d of %d bytes, %v", n, len(img.layer), err)
		}
	}
	pull() // cold: fills the cache
	pull()
	const pulls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / pulls
	t.Logf("256 KiB cached blob: %d B/pull", got)
	if got >= 16<<10 {
		t.Errorf("a cache hit allocates %d B per pull, want < 16 KiB", got)
	}
}

// chunkedWriter drops the Content-Length the registry set and flushes the
// headers before the body, so the response goes out chunked.
type chunkedWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *chunkedWriter) WriteHeader(code int) {
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(code)
	w.ResponseWriter.(http.Flusher).Flush()
	w.wroteHeader = true
}

func (w *chunkedWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// failLog fails the test on anything the mirror's http.Server logs.
type failLog struct{ t *testing.T }

func (l failLog) Write(p []byte) (int, error) {
	l.t.Errorf("mirror server logged: %s", p)
	return len(p), nil
}

// TestOriginWithoutContentLength: behind an origin that sends blobs
// chunked, a cold fill has no size. A cold ranged GET is answered with the
// whole blob (a server may ignore Range), as is a cold full GET, and
// neither carries a Content-Length of its own. Once cached, the blob's
// size is known and ranges are honoured.
func TestOriginWithoutContentLength(t *testing.T) {
	reg := registry.New(blobstore.NewMemory())
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reg.ServeHTTP(&chunkedWriter{ResponseWriter: w}, req)
	}))
	t.Cleanup(origin.Close)
	c := cache.New(blobstore.NewMemory(), 1<<20)
	front := httptest.NewUnstartedServer(New(&registry.Client{Base: origin.URL}, c))
	front.Config.ErrorLog = log.New(failLog{t}, "", 0)
	front.Start()
	t.Cleanup(front.Close)

	get := func(img image, spec string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v2/"+img.repo+"/blobs/"+img.layerD.String(), nil)
		if spec != "" {
			req.Header.Set("Range", spec)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	ranged := pushImage(t, reg, "library/ranged", blobOfSize(10, 64<<10), false)
	full := pushImage(t, reg, "library/full", blobOfSize(11, 64<<10), false)
	for _, cold := range []struct {
		img  image
		spec string
	}{{ranged, "bytes=0-9"}, {full, ""}} {
		resp, body := get(cold.img, cold.spec)
		if resp.StatusCode != http.StatusOK || resp.ContentLength != -1 || !bytes.Equal(body, cold.img.layer) {
			t.Fatalf("cold GET (Range %q): status %d, Content-Length %d, %d bytes; want 200, none, the %d-byte layer",
				cold.spec, resp.StatusCode, resp.ContentLength, len(body), len(cold.img.layer))
		}
	}

	for deadline := time.Now().Add(5 * time.Second); !c.Contains(ranged.layerD); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blob of unknown size not admitted within 5s of its cold pull")
		}
	}
	resp, body := get(ranged, "bytes=0-9")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, ranged.layer[:10]) {
		t.Fatalf("warm range: status %d, %d bytes; want 206 and the first 10 bytes", resp.StatusCode, len(body))
	}
	if n := reg.Stats().BlobGets; n != 2 {
		t.Fatalf("origin blob gets = %d, want 2 (one cold fill per layer)", n)
	}
}
