// Package serve is the production server chassis: a thin wrapper around
// net/http.Server that gives every mounted service — the Registry v2 API,
// the Hub search API — the same operational behaviour: a real listener
// (not httptest), panic recovery, an optional max-in-flight admission
// limit, and graceful shutdown that drains in-flight requests under a
// deadline. core mounts its loopback services through it and
// cmd/hubregistry mounts the public-facing ones, so test-harness servers
// no longer leak into production paths.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
)

// DefaultDrainTimeout bounds graceful shutdown when Server.DrainTimeout
// is zero: in-flight requests get this long to complete before the
// listener is torn down hard.
const DefaultDrainTimeout = 10 * time.Second

// Server is one HTTP service mounted on the chassis.
type Server struct {
	// Name labels the service in errors ("registry", "search", ...).
	Name string
	// Addr is the listen address; "127.0.0.1:0" (loopback, ephemeral
	// port) when empty, which is the in-process study configuration.
	Addr string
	// Handler is the service being mounted. The chassis wraps it with
	// panic recovery and, when MaxInFlight is positive, an admission
	// limit.
	Handler http.Handler
	// MaxInFlight bounds concurrently served requests; excess requests
	// are rejected with 503 Service Unavailable and a Retry-After header
	// rather than queueing without bound (0 = unlimited).
	MaxInFlight int
	// DrainTimeout bounds Shutdown's drain phase (DefaultDrainTimeout
	// when 0).
	DrainTimeout time.Duration

	mu         sync.Mutex
	ln         net.Listener
	srv        *http.Server
	done       chan struct{} // closed when Serve returns
	onShutdown []func()
	fresh      map[net.Conn]struct{} // connections yet to send a request
	nfresh     atomic.Int32          // len(fresh), read without mu
}

// OnShutdown registers f to run when Shutdown begins, before the drain
// completes (http.Server.RegisterOnShutdown semantics). Client uses it to
// discard client-side idle connections into a draining server.
func (s *Server) OnShutdown(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		s.srv.RegisterOnShutdown(f)
		return
	}
	s.onShutdown = append(s.onShutdown, f)
}

// Start binds the listener and begins serving in a background goroutine.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return fmt.Errorf("serve: %s: already started", s.name())
	}
	if s.Handler == nil {
		return fmt.Errorf("serve: %s: nil handler", s.name())
	}
	addr := s.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %s: listen %s: %w", s.name(), addr, err)
	}
	h := s.Handler
	if s.MaxInFlight > 0 {
		h = LimitInFlight(h, s.MaxInFlight)
	}
	h = Recovered(h)
	s.ln = ln
	s.fresh = make(map[net.Conn]struct{})
	s.srv = &http.Server{Handler: h, ConnState: s.track}
	s.srv.RegisterOnShutdown(s.closeFresh)
	for _, f := range s.onShutdown {
		s.srv.RegisterOnShutdown(f)
	}
	s.done = make(chan struct{})
	go func(srv *http.Server, ln net.Listener, done chan struct{}) {
		defer close(done)
		// ErrServerClosed is the normal Shutdown outcome.
		_ = srv.Serve(ln)
	}(s.srv, ln, s.done)
	return nil
}

// track is the ConnState hook that keeps the table of connections that
// have sent no request yet. net/http's Shutdown counts such a connection
// as in flight for five seconds, so a client that dialed one and never
// used it (a dial race leaves one in a client's pool) would hold the
// drain that long; closeFresh closes them when the drain begins. The
// table is only looked at while it holds a connection, so a request on a
// connection already out of it takes no lock.
func (s *Server) track(c net.Conn, state http.ConnState) {
	if state != http.StateNew && s.nfresh.Load() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if state == http.StateNew {
		s.fresh[c] = struct{}{}
	} else {
		delete(s.fresh, c)
	}
	s.nfresh.Store(int32(len(s.fresh)))
}

// closeFresh closes every connection that has sent no request yet.
func (s *Server) closeFresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.fresh {
		c.Close()
	}
}

func (s *Server) name() string {
	if s.Name != "" {
		return s.Name
	}
	return "server"
}

// URL returns the service's base URL ("http://127.0.0.1:port"); empty
// before Start.
func (s *Server) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return "http://" + s.ln.Addr().String()
}

// Client returns a new HTTP client with a dedicated transport (tuned like
// httpx.NewTransport) whose idle keep-alive connections are discarded
// when the service begins shutting down, so the client keeps no pooled
// connection to a server that is going away.
func (s *Server) Client() *http.Client {
	c := &http.Client{Transport: httpx.NewTransport()}
	s.OnShutdown(c.CloseIdleConnections)
	return c
}

// Shutdown gracefully stops the service: the listener closes to new
// connections, in-flight requests drain for up to DrainTimeout (bounded
// additionally by ctx), then anything still running is cut hard. The
// returned error is nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	d := s.DrainTimeout
	if d <= 0 {
		d = DefaultDrainTimeout
	}
	dctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		// The drain deadline (or caller ctx) expired with requests still
		// in flight: close them hard so the listener is guaranteed gone.
		srv.Close()
		err = fmt.Errorf("serve: %s: drain incomplete: %w", s.name(), err)
	}
	<-done
	return err
}

// Group manages several services with one lifecycle: all started
// together, all shut down together.
type Group struct {
	mu      sync.Mutex
	servers []*Server
}

// Start starts the server and adds it to the group. On error the group is
// left as it was (already-started members keep running, so the caller can
// still Shutdown the group).
func (g *Group) Start(s *Server) error {
	if err := s.Start(); err != nil {
		return err
	}
	g.mu.Lock()
	g.servers = append(g.servers, s)
	g.mu.Unlock()
	return nil
}

// Shutdown drains every member concurrently and joins their errors.
func (g *Group) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	servers := append([]*Server(nil), g.servers...)
	g.servers = nil
	g.mu.Unlock()

	errs := make([]error, len(servers))
	var wg sync.WaitGroup
	for i, s := range servers {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			errs[i] = s.Shutdown(ctx)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ShutdownOnDone arranges for the group to shut down (draining with
// DrainTimeout) once ctx is cancelled — the long-running-daemon wiring:
// the caller blocks on the returned channel, which yields the shutdown
// error after the drain completes.
func (g *Group) ShutdownOnDone(ctx context.Context) <-chan error {
	errc := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// ctx is already cancelled, so the drain cannot run under it —
		// every member would hard-close immediately instead of draining.
		// Derive the drain context from ctx WITHOUT its cancellation
		// (values survive, the trigger doesn't) and bound it by the
		// group's largest drain window plus hard-close headroom, so
		// shutdown is a real drain yet can never wait unbounded.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), g.drainBound()+time.Second)
		defer cancel()
		errc <- g.Shutdown(dctx)
	}()
	return errc
}

// drainBound returns the longest effective DrainTimeout among the
// group's members — the window a full graceful group drain may need.
func (g *Group) drainBound() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	bound := DefaultDrainTimeout
	for _, s := range g.servers {
		if s.DrainTimeout > bound {
			bound = s.DrainTimeout
		}
	}
	return bound
}

// Recovered wraps a handler with panic recovery: a panicking request is
// answered with 500 Internal Server Error (when nothing was written yet)
// instead of tearing down the whole connection, and the server lives on.
func Recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			if r := recover(); r != nil {
				// http.ErrAbortHandler is the sanctioned way to abort a
				// response; re-panic so net/http handles it as designed.
				if err, ok := r.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(r)
				}
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, req)
	})
}

// LimitInFlight wraps a handler with an admission limit of n concurrent
// requests; excess requests get 503 Service Unavailable with Retry-After,
// the registry-friendly backpressure signal (clients back off and retry,
// as the downloader's jittered backoff does).
func LimitInFlight(h http.Handler, n int) http.Handler {
	slots := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			h.ServeHTTP(w, req)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		}
	})
}
