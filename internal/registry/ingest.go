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
// Every monolithic blob upload reaches the hook exactly one of two ways,
// chosen by what the store does with the stream (no option selects it):
//
//   - BlobMembers: a store that decomposes the layers it ingests
//     (dedupstore) announces so once it has sniffed a tar, and the hook
//     is asked for an observer of that walk — each directory and file
//     with its content digest and leading bytes, then End once the blob
//     has committed as a layer. No second inflate, tar parse or hash pass
//     happens. A rejected body gets no End, and neither does an upload
//     the store merely drained (the blob was already held, or coalesced
//     onto a concurrent put of the same digest); Close follows in every
//     case once the store has returned. Returning nil declines, and the
//     upload takes the byte path below.
//   - BlobStream: when the store wants bytes only (Memory and Disk
//     always; dedupstore for configs and other non-tar blobs) the hook
//     receives a tee of the upload while the bytes cross the wire (no
//     second read of the blob), on its own goroutine. The implementation
//     MUST consume r to completion or the upload stalls: the pipe has no
//     buffer. The stream fails with a non-EOF error before its end iff
//     the upload was rejected (digest mismatch, truncated body), so a
//     cleanly terminated stream carries exactly the verified stored
//     bytes.
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

// ingestUpload splices the hook into one upload stream. It is the reader
// the store's PutStream consumes, and it carries the choice between the
// two Ingest paths on itself — not on the store or the hook, either of
// which may sit behind a decorator that embeds the interface and forwards
// the reader untouched. A store that calls blobstore.ObserverOf gets the
// hook's member observer; one that reads past its sniffing allowance
// (blobstore.SniffLen) without asking gets the byte tee instead. Until
// then the upload is undecided: reads are capped to the allowance and the
// bytes handed out are kept, so a tee that starts late still carries the
// whole stream.
type ingestUpload struct {
	hook Ingest
	d    digest.Digest
	src  io.Reader

	held  [blobstore.SniffLen]byte // bytes the store has read while undecided
	nheld int

	obs  UploadObserver // set once the store claimed the member path
	pw   *io.PipeWriter // set once the byte tee started
	done chan struct{}  // closed when hook.BlobStream returned
}

func (u *ingestUpload) undecided() bool { return u.obs == nil && u.pw == nil }

// MemberObserver is the carrier method blobstore.ObserverOf looks for.
func (u *ingestUpload) MemberObserver() blobstore.MemberObserver {
	if u.undecided() {
		u.obs = u.hook.BlobMembers(u.d)
	}
	return u.obs
}

func (u *ingestUpload) Read(p []byte) (int, error) {
	if u.undecided() {
		if room := len(u.held) - u.nheld; room == 0 {
			if err := u.startTee(); err != nil {
				return 0, err
			}
		} else if len(p) > room {
			p = p[:room]
		}
	}
	n, err := u.src.Read(p)
	switch {
	case u.pw != nil:
		if _, werr := u.pw.Write(p[:n]); werr != nil {
			return n, werr
		}
	case u.obs == nil:
		u.nheld += copy(u.held[u.nheld:], p[:n])
	}
	return n, err
}

// startTee runs hook.BlobStream on its own goroutine over a pipe that
// Read copies the upload into, beginning with what the store already read.
func (u *ingestUpload) startTee() error {
	pr, pw := io.Pipe()
	u.pw, u.done = pw, make(chan struct{})
	go func() {
		defer close(u.done)
		u.hook.BlobStream(u.d, pr)
		// Defensive: if the hook returned early, unblock the writer side.
		pr.CloseWithError(io.ErrClosedPipe)
	}()
	if u.nheld == 0 {
		return nil // a zero-length pipe write would still wait for a reader
	}
	_, err := pw.Write(u.held[:u.nheld])
	return err
}

// finish must be called exactly once with the store's verdict. On the byte
// path it propagates success (EOF) or failure into the hook's stream and
// waits for the hook to finish consuming, so the handler never responds
// while analysis of the bytes is still in flight; on the member path the
// store already delivered its verdict (End or no End) and the observer is
// released. An upload that ended inside the sniffing allowance is teed
// here, whole.
func (u *ingestUpload) finish(err error) {
	if u.obs != nil {
		u.obs.Close()
		return
	}
	if u.pw == nil {
		// A failed write means the hook gave up on the stream early; there
		// is nothing more to deliver either way.
		_ = u.startTee()
	}
	u.pw.CloseWithError(err) // nil closes with io.EOF
	<-u.done
}

// notifyManifestTagged fans a tagging event to the hook, if any.
func (r *Registry) notifyManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest) {
	if hook := r.ingestHook(); hook != nil {
		hook.ManifestTagged(repo, tag, d, m)
	}
}
