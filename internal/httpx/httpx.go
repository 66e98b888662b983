// Package httpx holds the shared HTTP transport configuration every
// in-repo client (registry, hubapi, serve-chassis clients) pulls from.
//
// The zero-config alternative — http.DefaultClient — caps idle keep-alive
// connections at http.DefaultMaxIdleConnsPerHost (2) per host. Every
// component in this repo fans many workers out against a single registry
// or search host, so under the default transport all but two responses
// close their connection on release and the worker pool pays a fresh TCP
// handshake (plus slow-start) per request: measurable wall-time loss and
// a client-side port-churn ceiling on exactly the hot path the study
// exercises (see EXPERIMENTS.md, "client transport tuning").
package httpx

import (
	"net/http"
	"time"
)

// MaxIdlePerHost is the idle keep-alive connection bound per host, sized
// to comfortably exceed the worker fan-out any one component points at a
// single host (engine default 8, trafficsim closed-loop clients up to dozens): every worker gets
// a persistent connection back instead of contending for two.
const MaxIdlePerHost = 64

// NewTransport returns a tuned transport with the package's keep-alive
// sizing. Callers that need connection-lifecycle isolation (e.g. a server
// chassis handing out clients it can tear down) create their own instance;
// everyone else shares DefaultClient.
func NewTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        4 * MaxIdlePerHost,
		MaxIdleConnsPerHost: MaxIdlePerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// DefaultClient is the process-wide client used when a component's HTTP
// client field is nil — the drop-in replacement for http.DefaultClient
// with the tuned transport.
var DefaultClient = &http.Client{Transport: NewTransport()}
