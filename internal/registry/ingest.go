package registry

import (
	"io"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
)

// Ingest observes the registry's write path, the hook the always-on
// analytics service hangs off. It is deliberately expressed in terms of
// raw streams, tar members and manifests — not analyzer types — so the
// registry stays a leaf the analysis stack can depend on.
//
// A monolithic blob upload reaches the hook one of two ways, chosen by
// what the store does with the stream (no option selects it):
//
//   - BlobMembers: a store that decomposes the layers it ingests
//     (dedupstore) announces so while it reads the upload, and the hook is
//     asked for an observer of that walk — each directory and file with
//     its content digest and leading bytes, then End once the blob has
//     committed as a layer. No second inflate, tar parse or hash pass
//     happens. A rejected body gets no End, and neither does an upload
//     the store merely drained (the blob was already held, or coalesced
//     onto a concurrent put of the same digest); Close follows in every
//     case once the store has returned. Returning nil declines, and the
//     upload takes the byte path below.
//   - BlobStream: when the store wants bytes only (Memory and Disk
//     always; dedupstore for configs and other non-tar blobs) the hook is
//     called after the blob committed, with a reader over the stored
//     blob, on the handler's goroutine. It need not drain r; the registry
//     closes it when the hook returns. A rejected upload never gets here.
//
// Either way the handler answers only after the hook is done with the
// upload, so a 201 means stored-and-analyzed. The remaining events:
//
//   - ManifestTagged fires after a tag points at a stored manifest. m is
//     the parsed document when the write path had it in hand (HTTP PUT,
//     PushManifest) and nil for administrative tag moves (SetTag), in
//     which case the implementation may load it from the store.
//   - TagDeleted fires after a tag is removed, once per (tag, digest)
//     pair that pointed at the deleted manifest.
//
// Calls may arrive concurrently from any number of request goroutines;
// the implementation serializes internally.
type Ingest interface {
	BlobStream(d digest.Digest, r io.Reader)
	BlobMembers(d digest.Digest) UploadObserver
	ManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest)
	TagDeleted(repo, tag string, d digest.Digest)
}

// UploadObserver watches one upload's decomposition by the store. The
// registry calls Close exactly once, after the store returned, whether or
// not the walk reached End.
type UploadObserver interface {
	blobstore.MemberObserver
	Close()
}

// ingestHolder wraps the hook so a nil-valued interface still stores into
// atomic.Value (which requires consistent concrete types).
type ingestHolder struct{ h Ingest }

// SetIngest installs the write-path observer. Install it before serving
// traffic: blobs pushed earlier are not replayed (the analytics service
// backfills unseen layers from the store on demand instead).
func (r *Registry) SetIngest(h Ingest) { r.ingest.Store(ingestHolder{h}) }

// ingestHook returns the installed observer, or nil.
func (r *Registry) ingestHook() Ingest {
	if v := r.ingest.Load(); v != nil {
		return v.(ingestHolder).h
	}
	return nil
}

// ingestUpload is the reader the store's PutStream consumes while a hook
// is installed. It carries the hook's member observer on itself — not on
// the store or the hook, either of which may sit behind a decorator that
// embeds the interface and forwards the reader untouched — so a store
// that calls blobstore.ObserverOf gets it.
type ingestUpload struct {
	io.Reader
	hook Ingest
	d    digest.Digest
	obs  UploadObserver // set once the store claimed the member path
}

// MemberObserver is the carrier method blobstore.ObserverOf looks for.
func (u *ingestUpload) MemberObserver() blobstore.MemberObserver {
	if u.obs == nil {
		u.obs = u.hook.BlobMembers(u.d)
	}
	return u.obs
}

// finish must be called exactly once, with the store's verdict, after
// PutStream returned. A claimed observer already had its End (or not) and
// is released; otherwise a committed blob is read back from the store and
// handed to the hook as bytes.
func (u *ingestUpload) finish(store blobstore.Store, err error) {
	if u.obs != nil {
		u.obs.Close()
		return
	}
	if err != nil {
		return
	}
	rc, _, err := store.Get(u.d)
	if err != nil {
		return // the hook sees nothing; a manifest naming the blob walks it on demand
	}
	defer rc.Close()
	u.hook.BlobStream(u.d, rc)
}

// notifyManifestTagged fans a tagging event to the hook, if any.
func (r *Registry) notifyManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest) {
	if hook := r.ingestHook(); hook != nil {
		hook.ManifestTagged(repo, tag, d, m)
	}
}
