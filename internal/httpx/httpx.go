// Package httpx holds the shared HTTP transport configuration every
// in-repo client (registry, hubapi, serve-chassis clients) pulls from, and
// the one rule for closing a response body early.
//
// NewTransport departs from Go's defaults in three places, each paid per
// request by every client here:
//
//   - Idle pool sized to the fan-out. http.DefaultClient caps idle
//     keep-alive connections at http.DefaultMaxIdleConnsPerHost (2) per
//     host. Every component in this repo fans many workers out against a
//     single registry or search host, so under the default transport all
//     but two responses close their connection on release and the worker
//     pool pays a fresh TCP handshake (plus slow-start) per request (see
//     EXPERIMENTS.md, "client transport tuning").
//   - A 64 KiB write buffer. A known-length request body goes out through
//     the connection's bufio.Writer; once the default 4 KiB buffer fills,
//     the rest is handed to the socket's generic ReadFrom, whose io.Copy
//     allocates a fresh buffer of up to 32 KiB for every upload. A body
//     that fits in the buffer never takes that path, and a larger one is
//     copied in 64 KiB writes (see EXPERIMENTS.md, "keep-alive HTTP hop").
//   - No Accept-Encoding. Go asks for gzip on every request unless told
//     not to, which costs a header per request on both ends. No server in
//     this repo compresses a response, and registry blobs are gzip already.
//
// A keep-alive connection goes back to the pool only once its response
// body has been read to EOF; closing a body with bytes left unread makes
// the transport discard the connection. So every error path that gives up
// on a response — a 401, 404, 416 or 429 — closes it with DrainClose, which
// reads a bounded remainder first. A body larger than that bound is not
// worth a read: closing it costs one dial, not a download.
package httpx

import (
	"io"
	"net/http"
	"time"
)

// MaxIdlePerHost is the idle keep-alive connection bound per host, sized
// to comfortably exceed the worker fan-out any one component points at a
// single host (engine default 8, trafficsim closed-loop clients up to dozens): every worker gets
// a persistent connection back instead of contending for two.
const MaxIdlePerHost = 64

// writeBufferSize is each connection's request write buffer: an upload
// body up to this size goes out without an extra copy buffer.
const writeBufferSize = 64 << 10

// maxDrain bounds what DrainClose reads: error replies are a few hundred
// bytes of JSON, so 4 KiB covers every one this repo's servers write.
const maxDrain = 4 << 10

// NewTransport returns a tuned transport (see the package doc). Callers
// that need connection-lifecycle isolation (e.g. a server chassis handing
// out clients it can tear down) create their own instance; everyone else
// shares DefaultClient.
func NewTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        4 * MaxIdlePerHost,
		MaxIdleConnsPerHost: MaxIdlePerHost,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     writeBufferSize,
		DisableCompression:  true,
	}
}

// DefaultClient is the process-wide client used when a component's HTTP
// client field is nil — the drop-in replacement for http.DefaultClient
// with the tuned transport.
var DefaultClient = &http.Client{Transport: NewTransport()}

// DrainClose reads up to 4 KiB of what is left of body and closes it, so
// a response given up on before EOF still returns its connection to the
// idle pool. http.NoBody, what a HEAD or an empty reply carries, is closed
// without a read.
func DrainClose(body io.ReadCloser) error {
	if body != http.NoBody {
		io.CopyN(io.Discard, body, maxDrain)
	}
	return body.Close()
}
