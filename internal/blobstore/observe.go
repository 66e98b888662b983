package blobstore

import (
	"io"

	"repro/internal/digest"
	"repro/internal/tarutil"
)

// MemberObserver receives the members of a layer blob from a store that
// decomposes what it ingests (dedupstore): the store gunzips, tar-walks and
// hashes every member anyway, so whoever else needs that walk watches this
// one instead of inflating the same bytes again.
//
// Calls arrive on the goroutine running PutStream, in archive order.
// Everything reported before End is provisional: the upload may still fail
// its digest check, and then End never comes. End is called exactly once,
// after the blob committed, with the blob's wire size.
type MemberObserver interface {
	// Dir reports a directory entry.
	Dir(e tarutil.Entry)
	// File reports any other entry (tarutil presents non-regular members
	// as empty files). sum is the SHA-256 of the full content; head is the
	// content's leading bytes — all of it when the store has the member in
	// hand — and is valid only during the call.
	File(e tarutil.Entry, sum digest.Digest, head []byte)
	// End reports that the blob committed as a decomposed layer.
	End(wireBytes int64)
}

// SniffLen is how much of a stream a store may read before it has to say
// whether it will report members: one tar header block, enough to tell a
// gzip stream or a plain archive from a raw blob.
const SniffLen = 512

// ObserverOf returns the observer carried by a reader handed to PutStream,
// or nil. Only a store that reports members calls it, and the call is its
// announcement that it will: a carrier that sees the store read past
// SniffLen bytes without asking concludes the store wants bytes only and
// serves its observer some other way. A store may also ask just to say
// that no other walk of this stream is wanted — it already holds the blob
// — and then report nothing. The capability rides on the reader rather
// than on the Store so that it survives decorators that embed a Store and
// forward the stream untouched.
func ObserverOf(r io.Reader) MemberObserver {
	if c, ok := r.(interface{ MemberObserver() MemberObserver }); ok {
		return c.MemberObserver()
	}
	return nil
}
