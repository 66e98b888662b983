package registry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/tarutil"
)

// recordingIngest captures every hook event for assertions.
type recordingIngest struct {
	store     blobstore.Store // the registry's store, asked whether a streamed blob has committed
	mu        sync.Mutex
	blobs     map[digest.Digest]string   // digest -> hex sha256 of the streamed bytes
	errs      map[digest.Digest]error    // digest -> stream error (nil = clean EOF)
	committed map[digest.Digest]bool     // digest -> stored when BlobStream was called
	members   map[digest.Digest][]string // digest -> member-path calls; nil = decline BlobMembers
	tagged    []string                   // "repo:tag@digest[,nil-manifest]"
	deleted   []string                   // "repo:tag@digest"
}

// newRecordingIngest installs a recorder on reg.
func newRecordingIngest(reg *Registry) *recordingIngest {
	ri := &recordingIngest{
		store:     reg.Blobs(),
		blobs:     make(map[digest.Digest]string),
		errs:      make(map[digest.Digest]error),
		committed: make(map[digest.Digest]bool),
	}
	reg.SetIngest(ri)
	return ri
}

func (ri *recordingIngest) BlobStream(d digest.Digest, r io.Reader) {
	committed := ri.store.Has(d)
	h := sha256.New()
	_, err := io.Copy(h, r)
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.committed[d] = committed
	if err != nil {
		ri.errs[d] = err
		return
	}
	ri.errs[d] = nil
	ri.blobs[d] = hex.EncodeToString(h.Sum(nil))
}

// streamed reports whether BlobStream delivered exactly blob, cleanly,
// after the store committed it.
func (ri *recordingIngest) streamed(d digest.Digest, blob []byte) bool {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	sum := sha256.Sum256(blob)
	serr, ok := ri.errs[d]
	return ok && serr == nil && ri.committed[d] && ri.blobs[d] == hex.EncodeToString(sum[:])
}

// BlobMembers declines unless the test armed members: the recorder wants
// bytes, so uploads reach BlobStream whatever the store could have
// reported.
func (ri *recordingIngest) BlobMembers(d digest.Digest) UploadObserver {
	if ri.members == nil {
		return nil
	}
	return &recordingObserver{ri: ri, d: d}
}

// recordingObserver logs the member path's calls as "digest:event".
type recordingObserver struct {
	ri *recordingIngest
	d  digest.Digest
}

func (o *recordingObserver) log(ev string) {
	o.ri.mu.Lock()
	defer o.ri.mu.Unlock()
	o.ri.members[o.d] = append(o.ri.members[o.d], ev)
}

func (o *recordingObserver) Dir(e tarutil.Entry) { o.log("dir " + e.Name) }
func (o *recordingObserver) File(e tarutil.Entry, sum digest.Digest, head []byte) {
	o.log("file " + e.Name + " " + string(head))
}
func (o *recordingObserver) End(wireBytes int64) { o.log(fmt.Sprint("end ", wireBytes)) }
func (o *recordingObserver) Close()              { o.log("close") }

// reportingStore stands in for a decomposing store behind a decorator: it
// announces through the reader, stores the bytes in the embedded store,
// and reports one member plus the commit when the put succeeded.
type reportingStore struct{ blobstore.Store }

func (s *reportingStore) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	obs := blobstore.ObserverOf(r)
	n, err := s.Store.PutStream(want, r)
	if obs != nil && err == nil {
		obs.File(tarutil.Entry{Name: "f"}, want, []byte("head"))
		obs.End(n)
	}
	return n, err
}

// sniffingStore reads the whole stream first, the way dedupstore reads
// into a blob before it knows what the blob is, and only then announces —
// or does not.
type sniffingStore struct {
	blobstore.Store
	announce bool
}

func (s *sniffingStore) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var obs blobstore.MemberObserver
	if s.announce {
		obs = blobstore.ObserverOf(r)
	}
	n, err := s.Store.PutStream(want, bytes.NewReader(body))
	if obs != nil && err == nil {
		obs.End(n)
	}
	return n, err
}

// embeddingStore forwards everything, reader included, the way a tracing
// decorator does.
type embeddingStore struct{ blobstore.Store }

func (ri *recordingIngest) ManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ev := repo + ":" + tag + "@" + d.String()
	if m == nil {
		ev += ",nil-manifest"
	}
	ri.tagged = append(ri.tagged, ev)
}

func (ri *recordingIngest) TagDeleted(repo, tag string, d digest.Digest) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.deleted = append(ri.deleted, repo+":"+tag+"@"+d.String())
}

func ingestTestSetup(t *testing.T) (*Registry, *Client, *recordingIngest) {
	t.Helper()
	reg, c, _ := pushTestSetup(t)
	return reg, c, newRecordingIngest(reg)
}

// TestIngestStreamSeesCommittedBytes: the hook's stream is the stored
// blob, read back after the commit — exactly the uploaded bytes, ending in
// a clean EOF — for blobs small and large.
func TestIngestStreamSeesCommittedBytes(t *testing.T) {
	_, c, ri := ingestTestSetup(t)
	for _, size := range []int{0, 33, 100_000} {
		blob := make([]byte, size)
		for i := range blob {
			blob[i] = byte(i*7 + size)
		}
		d, err := c.PushBlobContext(context.Background(), "alice/app", blob)
		if err != nil {
			t.Fatal(err)
		}
		if !ri.streamed(d, blob) {
			ri.mu.Lock()
			t.Errorf("%d-byte blob: stream err=%v committed=%v", size, ri.errs[d], ri.committed[d])
			ri.mu.Unlock()
		}
	}
}

// TestIngestRejectedUploadNeverReachesHook: a digest-mismatched upload
// leaves nothing in the store and nothing for the hook — no byte stream
// over a plain store, no End over a reporting one.
func TestIngestRejectedUploadNeverReachesHook(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store blobstore.Store
	}{
		{"plain", blobstore.NewMemory()},
		{"reporting", &reportingStore{blobstore.NewMemory()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := New(tc.store)
			reg.CreateRepo("alice/app", false)
			ri := newRecordingIngest(reg)
			ri.members = make(map[digest.Digest][]string)
			srv := httptest.NewServer(reg)
			defer srv.Close()

			wrong := digest.FromBytes([]byte("not the content"))
			resp, err := http.Post(srv.URL+"/v2/alice/app/blobs/uploads/?digest="+wrong.String(), "application/octet-stream", strings.NewReader("actual content"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("mismatched digest upload status %d, want 400", resp.StatusCode)
			}
			if reg.Blobs().Has(wrong) {
				t.Fatal("rejected blob landed in the store")
			}
			ri.mu.Lock()
			defer ri.mu.Unlock()
			if len(ri.errs) != 0 {
				t.Fatalf("BlobStream ran %d times for a rejected upload", len(ri.errs))
			}
			for _, ev := range ri.members[wrong] {
				if strings.HasPrefix(ev, "end") {
					t.Fatalf("rejected upload reached End: member calls %q", ri.members[wrong])
				}
			}
		})
	}
}

// TestIngestMemberPath: when the store announces that it reports members
// — here from behind an embedding decorator, so only the reader can carry
// the announcement — the hook gets the member path and no byte stream;
// End arrives only for a committed upload, Close always and last.
func TestIngestMemberPath(t *testing.T) {
	reg := New(&embeddingStore{&reportingStore{blobstore.NewMemory()}})
	reg.CreateRepo("alice/app", false)
	ri := newRecordingIngest(reg)
	ri.members = make(map[digest.Digest][]string)
	srv := httptest.NewServer(reg)
	defer srv.Close()
	c := &Client{Base: srv.URL}

	blob := []byte("a blob the store decomposes")
	d, err := c.PushBlobContext(context.Background(), "alice/app", blob)
	if err != nil {
		t.Fatal(err)
	}
	wrong := digest.FromBytes([]byte("not the content"))
	resp, err := http.Post(srv.URL+"/v2/alice/app/blobs/uploads/?digest="+wrong.String(), "application/octet-stream", strings.NewReader("actual content"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched digest upload status %d, want 400", resp.StatusCode)
	}

	ri.mu.Lock()
	defer ri.mu.Unlock()
	if len(ri.errs) != 0 {
		t.Fatalf("BlobStream ran %d times beside the member path", len(ri.errs))
	}
	if got, want := ri.members[d], []string{"file f head", fmt.Sprint("end ", len(blob)), "close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("committed upload: member calls %q, want %q", got, want)
	}
	if got, want := ri.members[wrong], []string{"close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rejected upload: member calls %q, want %q", got, want)
	}
}

// TestIngestDeclinedMembersTakeByteStream: a hook that returns nil from
// BlobMembers still sees every upload, as the committed bytes, even over
// a store that offered to report.
func TestIngestDeclinedMembersTakeByteStream(t *testing.T) {
	reg := New(&reportingStore{blobstore.NewMemory()})
	reg.CreateRepo("alice/app", false)
	ri := newRecordingIngest(reg)
	srv := httptest.NewServer(reg)
	defer srv.Close()

	blob := []byte("bytes for a hook that wants bytes")
	d, err := (&Client{Base: srv.URL}).PushBlobContext(context.Background(), "alice/app", blob)
	if err != nil {
		t.Fatal(err)
	}
	if !ri.streamed(d, blob) {
		t.Fatal("declining hook: no clean stream of the committed bytes")
	}
}

// TestIngestSniffThenDecide: a store may read as much of the stream as it
// likes — here all of it — before it announces. If it then announces, no
// byte stream follows; if it does not, the hook reads the committed blob
// back, whole.
func TestIngestSniffThenDecide(t *testing.T) {
	for _, announce := range []bool{true, false} {
		reg := New(&embeddingStore{&sniffingStore{Store: blobstore.NewMemory(), announce: announce}})
		reg.CreateRepo("alice/app", false)
		ri := newRecordingIngest(reg)
		ri.members = make(map[digest.Digest][]string)
		srv := httptest.NewServer(reg)
		c := &Client{Base: srv.URL}
		for _, size := range []int{0, 10, 100_000} {
			blob := make([]byte, size)
			for i := range blob {
				blob[i] = byte(i*13 + size)
			}
			d, err := c.PushBlobContext(context.Background(), "alice/app", blob)
			if err != nil {
				t.Fatal(err)
			}
			streamed := ri.streamed(d, blob)
			ri.mu.Lock()
			_, called := ri.errs[d]
			if announce {
				if want := []string{fmt.Sprint("end ", size), "close"}; called || !reflect.DeepEqual(ri.members[d], want) {
					t.Errorf("announcing store, %d bytes: streamed=%v, member calls %q, want %q", size, called, ri.members[d], want)
				}
			} else if !streamed || len(ri.members[d]) != 0 {
				t.Errorf("silent store, %d bytes: streamed whole after commit=%v, member calls %q", size, streamed, ri.members[d])
			}
			ri.mu.Unlock()
		}
		srv.Close()
	}
}

// TestIngestManifestNotifications: HTTP PUT and direct PushManifest carry
// the parsed manifest; administrative SetTag notifies with nil.
func TestIngestManifestNotifications(t *testing.T) {
	reg, c, ri := ingestTestSetup(t)
	_, m := pushImage(t, c, "alice/app", "latest")
	d := manifestDigest(t, m)

	if err := reg.SetTag("alice/app", "stable", d); err != nil {
		t.Fatal(err)
	}
	ri.mu.Lock()
	tagged := append([]string(nil), ri.tagged...)
	ri.mu.Unlock()
	want := []string{
		"alice/app:latest@" + d.String(),
		"alice/app:stable@" + d.String() + ",nil-manifest",
	}
	if len(tagged) != len(want) || tagged[0] != want[0] || tagged[1] != want[1] {
		t.Fatalf("tagged events %q, want %q", tagged, want)
	}
}

// TestDeleteManifestByTag: DELETE by tag untags exactly that tag, fires
// the hook, bumps the stat, and leaves other tags alone.
func TestDeleteManifestByTag(t *testing.T) {
	reg, c, ri := ingestTestSetup(t)
	_, m := pushImage(t, c, "alice/app", "latest")
	d := manifestDigest(t, m)
	if err := reg.SetTag("alice/app", "stable", d); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteManifestContext(context.Background(), "alice/app", "latest"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ManifestContext(context.Background(), "alice/app", "latest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tag still resolves: %v", err)
	}
	if _, _, err := c.ManifestContext(context.Background(), "alice/app", "stable"); err != nil {
		t.Fatalf("sibling tag lost: %v", err)
	}
	ri.mu.Lock()
	deleted := append([]string(nil), ri.deleted...)
	ri.mu.Unlock()
	if len(deleted) != 1 || deleted[0] != "alice/app:latest@"+d.String() {
		t.Fatalf("deleted events %q", deleted)
	}
	if st := reg.Stats(); st.TagDeletes != 1 {
		t.Fatalf("TagDeletes = %d, want 1", st.TagDeletes)
	}
}

// TestDeleteManifestByDigest: DELETE by digest untags every tag pointing
// at it, with hook events in deterministic (tag-sorted) order.
func TestDeleteManifestByDigest(t *testing.T) {
	reg, c, ri := ingestTestSetup(t)
	_, m := pushImage(t, c, "alice/app", "latest")
	d := manifestDigest(t, m)
	if err := reg.SetTag("alice/app", "stable", d); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetTag("alice/app", "v1", d); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteManifestContext(context.Background(), "alice/app", d.String()); err != nil {
		t.Fatal(err)
	}
	tags, err := reg.Tags("alice/app")
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 0 {
		t.Fatalf("tags survived digest delete: %v", tags)
	}
	ri.mu.Lock()
	deleted := append([]string(nil), ri.deleted...)
	ri.mu.Unlock()
	want := []string{
		"alice/app:latest@" + d.String(),
		"alice/app:stable@" + d.String(),
		"alice/app:v1@" + d.String(),
	}
	if len(deleted) != 3 || deleted[0] != want[0] || deleted[1] != want[1] || deleted[2] != want[2] {
		t.Fatalf("deleted events %q, want %q", deleted, want)
	}
	if st := reg.Stats(); st.TagDeletes != 3 {
		t.Fatalf("TagDeletes = %d, want 3", st.TagDeletes)
	}
}

// TestDeleteManifestMissing: unknown tag or unreferenced digest is 404
// with the standard error envelope; no hook events fire.
func TestDeleteManifestMissing(t *testing.T) {
	reg, c, ri := ingestTestSetup(t)
	pushImage(t, c, "alice/app", "latest")

	if err := c.DeleteManifestContext(context.Background(), "alice/app", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown tag = %v, want ErrNotFound", err)
	}
	if err := c.DeleteManifestContext(context.Background(), "alice/app", digest.FromBytes([]byte("ghost")).String()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown digest = %v, want ErrNotFound", err)
	}
	ri.mu.Lock()
	n := len(ri.deleted)
	ri.mu.Unlock()
	if n != 0 {
		t.Fatalf("hook fired for missing manifests: %d events", n)
	}
	if st := reg.Stats(); st.TagDeletes != 0 {
		t.Fatalf("TagDeletes = %d, want 0", st.TagDeletes)
	}
}

// TestDeleteManifestAuth: private repos require auth for DELETE like any
// other write.
func TestDeleteManifestAuth(t *testing.T) {
	reg, anon, ri := ingestTestSetup(t)
	_ = ri
	authed := &Client{Base: anon.Base, Token: "tok"}
	pushImage(t, authed, "bob/secret", "latest")
	_ = reg

	if err := anon.DeleteManifestContext(context.Background(), "bob/secret", "latest"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous delete = %v, want ErrUnauthorized", err)
	}
	if err := authed.DeleteManifestContext(context.Background(), "bob/secret", "latest"); err != nil {
		t.Fatalf("authorized delete: %v", err)
	}
}

// TestIngestNilHookIsFreePath: with no hook installed, pushes and deletes
// behave identically (guard against nil-deref on the hot path).
func TestIngestNilHookIsFreePath(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	_, m := pushImage(t, c, "alice/app", "latest")
	if err := c.DeleteManifestContext(context.Background(), "alice/app", "latest"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushManifestContext(context.Background(), "alice/app", "latest", m); err != nil {
		t.Fatal(err)
	}
}
