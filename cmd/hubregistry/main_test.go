package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/topology"
)

// testHub is a materialized hub on disk — what hubgen writes — and one
// public image in it.
type testHub struct {
	dir      string
	store    *blobstore.Disk
	repo     string
	manifest digest.Digest
}

func newHub(t *testing.T) *testHub {
	t.Helper()
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	h := &testHub{dir: t.TempDir()}
	if h.store, err = blobstore.NewDisk(filepath.Join(h.dir, "blobs")); err != nil {
		t.Fatal(err)
	}
	mat, err := synth.Materialize(d, registry.New(h.store))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.BuildHubState(d, mat).Save(filepath.Join(h.dir, "hubstate.json")); err != nil {
		t.Fatal(err)
	}
	for i := range d.Repos {
		if r := &d.Repos[i]; r.Downloadable() {
			h.repo, h.manifest = r.Name, mat.ManifestDigests[r.Image]
			return h
		}
	}
	t.Fatal("the hub has no public image")
	return nil
}

// pull pulls the hub's image through url and requires its manifest and
// every layer byte-equal to what the hub stores.
func (h *testHub) pull(t *testing.T, url string) {
	t.Helper()
	c := &registry.Client{Base: url}
	m, d, err := c.ManifestContext(context.Background(), h.repo, "latest")
	if err != nil || d != h.manifest {
		t.Fatalf("manifest via %s: digest %s, err %v", url, d, err)
	}
	for _, ld := range m.LayerDigests() {
		got, err := blobVerified(c, h.repo, ld)
		if err != nil {
			t.Fatalf("layer %s via %s: %v", ld.Short(), url, err)
		}
		rc, _, err := h.store.Get(ld)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("layer %s via %s differs from the hub's bytes", ld.Short(), url)
		}
	}
}

// proc is one hubregistry run on its own goroutine.
type proc struct {
	url    string
	cancel context.CancelFunc
	exit   chan int
	stdout chan string
	stderr bytes.Buffer // read only after exit
}

var servingOn = regexp.MustCompile(`^hubregistry: serving .*? on (http://[^ ]+)`)

// start runs hubregistry with args on a loopback ephemeral port and
// returns once it prints its endpoint.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p := &proc{cancel: cancel, exit: make(chan int, 1), stdout: make(chan string, 1)}
	pr, pw := io.Pipe()
	go func() {
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw, &p.stderr)
		pw.Close()
		p.exit <- code
	}()
	urlc := make(chan string, 1)
	go func() {
		var out strings.Builder
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
				urlc <- m[1]
			}
		}
		io.Copy(io.Discard, pr) // never leave the writer blocked
		close(urlc)
		p.stdout <- out.String()
	}()
	url, ok := <-urlc
	if !ok {
		code := <-p.exit
		t.Fatalf("hubregistry %q exited %d before serving: %s", args, code, p.stderr.String())
	}
	p.url = url
	return p
}

// stop is the process's SIGINT: it drains, must exit 0, and must print the
// stack's counters, which it returns.
func (p *proc) stop(t *testing.T) topology.Stats {
	t.Helper()
	p.cancel()
	code, out := <-p.exit, <-p.stdout
	if code != 0 {
		t.Fatalf("hubregistry on %s exited %d: %s", p.url, code, p.stderr.String())
	}
	_, stats, ok := strings.Cut(out, "hubregistry: drained and stopped; stats:\n")
	var st topology.Stats
	if !ok {
		t.Fatalf("no drain epilogue in:\n%s", out)
	}
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatalf("drain epilogue stats: %v\n%s", err, stats)
	}
	return st
}

// TestServeHub: -data serves the hub byte-exact from the plain disk store
// and from the dedup pool it re-ingests into.
func TestServeHub(t *testing.T) {
	h := newHub(t)
	for _, storage := range []string{"plain", "dedup"} {
		p := start(t, "-data", h.dir, "-search-addr", "127.0.0.1:0", "-storage", storage)
		h.pull(t, p.url)
		st := p.stop(t)
		if st.Origin.Registry.BlobGets == 0 {
			t.Errorf("-storage %s: stats count no blob gets: %+v", storage, st.Origin.Registry)
		}
		if dedup := st.Origin.Dedup.Layers > 0; dedup != (storage == "dedup") {
			t.Errorf("-storage %s: dedup stats %+v", storage, st.Origin.Dedup)
		}
	}
}

// TestServeRouterAndMirror: -nodes routes over two -data processes and
// -origin mirrors one; both serve the hub byte-exact.
func TestServeRouterAndMirror(t *testing.T) {
	h := newHub(t)
	a := start(t, "-data", h.dir, "-search-addr", "127.0.0.1:0")
	b := start(t, "-data", h.dir, "-search-addr", "127.0.0.1:0")

	router := start(t, "-nodes", a.url+","+b.url)
	h.pull(t, router.url)
	if st := router.stop(t); st.Router.Misses == 0 || st.Origin.URL != "" {
		t.Errorf("router stats: %+v", st)
	}

	mirror := start(t, "-origin", a.url, "-mirror-bytes", "16777216")
	h.pull(t, mirror.url)
	h.pull(t, mirror.url)
	if st := mirror.stop(t); st.Mirror.Hits == 0 || st.Mirror.Misses == 0 {
		t.Errorf("mirror stats: %+v", st.Mirror)
	}

	if st := a.stop(t); st.Origin.Registry.BlobGets == 0 {
		t.Error("the mirror's origin served no blobs")
	}
	b.stop(t)
}

func TestUsage(t *testing.T) {
	h := newHub(t)
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "one of -data, -origin or -nodes"},
		{[]string{"-data", h.dir, "-origin", "http://127.0.0.1:1"}, 2, "does not combine"},
		{[]string{"-data", h.dir, "-nodes", "http://127.0.0.1:1"}, 2, "does not combine"},
		{[]string{"-data", h.dir, "-storage", "zfs"}, 2, "unknown -storage"},
		{[]string{"-no-such-flag"}, 2, "not defined"},
		// Provision's rules: a mirror is the one tier in front of
		// somebody else's registry, and their store is not ours to dedup.
		{[]string{"-origin", "http://127.0.0.1:1"}, 1, "mirror"},
		{[]string{"-origin", "http://127.0.0.1:1", "-mirror-bytes", "1024", "-storage", "dedup"}, 1, "of our own"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
		if code := run(context.Background(), args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("hubregistry %q exited %d (%s), want %d naming %q", c.args, code, stderr.String(), c.code, c.msg)
		}
	}
}

// blobVerified reads a whole blob through the verifying stream.
func blobVerified(c *registry.Client, name string, d digest.Digest) ([]byte, error) {
	rc, _, err := c.BlobStreamVerifiedContext(context.Background(), name, d)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
