package registry

import (
	"bufio"
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
	mu      sync.Mutex
	blobs   map[digest.Digest]string   // digest -> hex sha256 of the streamed bytes
	errs    map[digest.Digest]error    // digest -> stream error (nil = clean EOF)
	members map[digest.Digest][]string // digest -> member-path calls; nil = decline BlobMembers
	tagged  []string                   // "repo:tag@digest[,nil-manifest]"
	deleted []string                   // "repo:tag@digest"
}

func newRecordingIngest() *recordingIngest {
	return &recordingIngest{
		blobs: make(map[digest.Digest]string),
		errs:  make(map[digest.Digest]error),
	}
}

func (ri *recordingIngest) BlobStream(d digest.Digest, r io.Reader) {
	h := sha256.New()
	_, err := io.Copy(h, r)
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if err != nil {
		ri.errs[d] = err
		return
	}
	ri.errs[d] = nil
	ri.blobs[d] = hex.EncodeToString(h.Sum(nil))
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

// sniffingStore reads its sniffing allowance first, the way dedupstore
// classifies a stream, and only then announces — or does not.
type sniffingStore struct {
	blobstore.Store
	announce bool
}

func (s *sniffingStore) PutStream(want digest.Digest, r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	br.Peek(blobstore.SniffLen)
	var obs blobstore.MemberObserver
	if s.announce {
		obs = blobstore.ObserverOf(r)
	}
	n, err := s.Store.PutStream(want, br)
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
	ri := newRecordingIngest()
	reg.SetIngest(ri)
	return reg, c, ri
}

// TestIngestTeeSeesExactBytes: the hook's stream carries exactly the
// verified uploaded bytes, ending in a clean EOF.
func TestIngestTeeSeesExactBytes(t *testing.T) {
	_, c, ri := ingestTestSetup(t)
	blob := []byte("the exact bytes crossing the wire")
	d, err := c.PushBlob("alice/app", blob)
	if err != nil {
		t.Fatal(err)
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if serr, ok := ri.errs[d]; !ok || serr != nil {
		t.Fatalf("hook stream for %s: present=%v err=%v", d.Short(), ok, serr)
	}
	sum := sha256.Sum256(blob)
	if ri.blobs[d] != hex.EncodeToString(sum[:]) {
		t.Fatal("hook saw different bytes than were uploaded")
	}
}

// TestIngestTeeRejectedUpload: a digest-mismatched upload errors the
// hook's stream before clean EOF; the store keeps nothing and the hook
// must not treat the bytes as verified.
func TestIngestTeeRejectedUpload(t *testing.T) {
	reg, c, ri := ingestTestSetup(t)
	wrong := digest.FromString("not the content")
	u := c.Base + "/v2/alice/app/blobs/uploads/?digest=" + wrong.String()
	resp, err := http.Post(u, "application/octet-stream", strings.NewReader("actual content"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched digest upload status %d, want 400", resp.StatusCode)
	}
	if _, _, err := reg.Blobs().Get(wrong); err == nil {
		t.Fatal("rejected blob landed in the store")
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if _, ok := ri.blobs[wrong]; ok {
		t.Fatal("hook recorded a rejected upload as verified")
	}
	if serr := ri.errs[wrong]; serr == nil {
		t.Fatal("hook stream for rejected upload ended in clean EOF, want error")
	}
}

// TestIngestMemberPath: when the store announces that it reports members
// — here from behind an embedding decorator, so only the reader can carry
// the announcement — the hook gets the member path and no byte stream;
// End arrives only for a committed upload, Close always and last.
func TestIngestMemberPath(t *testing.T) {
	reg := New(&embeddingStore{&reportingStore{blobstore.NewMemory()}})
	reg.CreateRepo("alice/app", false)
	ri := newRecordingIngest()
	ri.members = make(map[digest.Digest][]string)
	reg.SetIngest(ri)
	srv := httptest.NewServer(reg)
	defer srv.Close()
	c := &Client{Base: srv.URL}

	blob := []byte("a blob the store decomposes")
	d, err := c.PushBlob("alice/app", blob)
	if err != nil {
		t.Fatal(err)
	}
	wrong := digest.FromString("not the content")
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

// TestIngestDeclinedMembersTakeByteTee: a hook that returns nil from
// BlobMembers still sees every upload, as bytes, even over a store that
// offered to report.
func TestIngestDeclinedMembersTakeByteTee(t *testing.T) {
	reg := New(&reportingStore{blobstore.NewMemory()})
	reg.CreateRepo("alice/app", false)
	ri := newRecordingIngest()
	reg.SetIngest(ri)
	srv := httptest.NewServer(reg)
	defer srv.Close()

	blob := []byte("bytes for a hook that wants bytes")
	d, err := (&Client{Base: srv.URL}).PushBlob("alice/app", blob)
	if err != nil {
		t.Fatal(err)
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	sum := sha256.Sum256(blob)
	if serr, ok := ri.errs[d]; !ok || serr != nil || ri.blobs[d] != hex.EncodeToString(sum[:]) {
		t.Fatalf("declining hook: stream present=%v err=%v, bytes match=%v", ok, serr, ri.blobs[d] == hex.EncodeToString(sum[:]))
	}
}

// TestIngestSniffThenDecide: a store may look at the head of the stream
// before it announces. If it then announces, no byte stream starts; if it
// does not, the tee starts late and must still carry every byte — for
// blobs shorter than, exactly at, and beyond the sniffing allowance.
func TestIngestSniffThenDecide(t *testing.T) {
	for _, announce := range []bool{true, false} {
		reg := New(&embeddingStore{&sniffingStore{Store: blobstore.NewMemory(), announce: announce}})
		reg.CreateRepo("alice/app", false)
		ri := newRecordingIngest()
		ri.members = make(map[digest.Digest][]string)
		reg.SetIngest(ri)
		srv := httptest.NewServer(reg)
		c := &Client{Base: srv.URL}
		for _, size := range []int{0, 10, blobstore.SniffLen, blobstore.SniffLen + 1, 100_000} {
			blob := make([]byte, size)
			for i := range blob {
				blob[i] = byte(i*13 + size)
			}
			d, err := c.PushBlob("alice/app", blob)
			if err != nil {
				t.Fatal(err)
			}
			ri.mu.Lock()
			serr, streamed := ri.errs[d]
			if announce {
				if want := []string{fmt.Sprint("end ", size), "close"}; streamed || !reflect.DeepEqual(ri.members[d], want) {
					t.Errorf("announcing store, %d bytes: streamed=%v, member calls %q, want %q", size, streamed, ri.members[d], want)
				}
			} else {
				sum := sha256.Sum256(blob)
				if !streamed || serr != nil || ri.blobs[d] != hex.EncodeToString(sum[:]) || len(ri.members[d]) != 0 {
					t.Errorf("silent store, %d bytes: streamed=%v err=%v exact=%v member calls %q",
						size, streamed, serr, ri.blobs[d] == hex.EncodeToString(sum[:]), ri.members[d])
				}
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
	d, _ := m.Digest()

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
	d, _ := m.Digest()
	if err := reg.SetTag("alice/app", "stable", d); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteManifest("alice/app", "latest"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Manifest("alice/app", "latest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tag still resolves: %v", err)
	}
	if _, _, err := c.Manifest("alice/app", "stable"); err != nil {
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
	d, _ := m.Digest()
	if err := reg.SetTag("alice/app", "stable", d); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetTag("alice/app", "v1", d); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteManifest("alice/app", d.String()); err != nil {
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

	if err := c.DeleteManifest("alice/app", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown tag = %v, want ErrNotFound", err)
	}
	if err := c.DeleteManifest("alice/app", digest.FromString("ghost").String()); !errors.Is(err, ErrNotFound) {
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

	if err := anon.DeleteManifest("bob/secret", "latest"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous delete = %v, want ErrUnauthorized", err)
	}
	if err := authed.DeleteManifest("bob/secret", "latest"); err != nil {
		t.Fatalf("authorized delete: %v", err)
	}
}

// TestIngestNilHookIsFreePath: with no hook installed, pushes and deletes
// behave identically (guard against nil-deref on the hot path).
func TestIngestNilHookIsFreePath(t *testing.T) {
	_, c, _ := pushTestSetup(t)
	_, m := pushImage(t, c, "alice/app", "latest")
	if err := c.DeleteManifest("alice/app", "latest"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushManifest("alice/app", "latest", m); err != nil {
		t.Fatal(err)
	}
}
