package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/registry"
)

// TestGracefulShutdownDrainsInFlightBlobDownload is the chassis e2e: a
// blob download is mid-flight when the server context is cancelled; the
// in-flight transfer must complete bit-perfectly while the listener
// closes to new work.
func TestGracefulShutdownDrainsInFlightBlobDownload(t *testing.T) {
	reg := registry.New(blobstore.NewMemory())
	reg.CreateRepo("demo/app", false)
	// Large enough that the response cannot hide in socket buffers: the
	// transfer is genuinely in flight when shutdown begins.
	blob := bytes.Repeat([]byte("graceful-shutdown-e2e-"), 1<<20) // ~22 MiB
	d, err := reg.PushBlob(blob)
	if err != nil {
		t.Fatal(err)
	}

	srv := &Server{Name: "registry", Handler: reg, DrainTimeout: 30 * time.Second}
	group := &Group{}
	if err := group.Start(srv); err != nil {
		t.Fatal(err)
	}
	url := srv.URL()

	client := &registry.Client{Base: url, HTTP: srv.Client()}
	rc, _, err := client.Blob("demo/app", d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Consume a little, proving the request is in flight.
	head := make([]byte, 64<<10)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}

	// Cancel the server context; the group begins draining.
	ctx, cancel := context.WithCancel(context.Background())
	errc := group.ShutdownOnDone(ctx)
	cancel()

	// The listener must close to new connections while the old request
	// drains.
	addr := strings.TrimPrefix(url, "http://")
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight download completes cleanly and byte-identically.
	rest, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("in-flight download aborted during drain: %v", err)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, blob) {
		t.Fatalf("drained download corrupted: got %d bytes, want %d", len(got), len(blob))
	}

	if err := <-errc; err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
}

// TestShutdownDrainTimeoutForcesClose: a request that never finishes
// cannot hold the listener hostage — the drain deadline cuts it.
func TestShutdownDrainTimeoutForcesClose(t *testing.T) {
	started := make(chan struct{})
	srv := &Server{
		Name: "stuck",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			close(started)
			<-req.Context().Done() // blocks until the hard close
		}),
		DrainTimeout: 100 * time.Millisecond,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	reqErr := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL() + "/")
		if err == nil {
			resp.Body.Close()
		}
		reqErr <- err
	}()
	<-started

	start := time.Now()
	err := srv.Shutdown(context.Background())
	if err == nil {
		t.Fatal("expected a drain-incomplete error for the stuck request")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v despite a 100ms drain timeout", elapsed)
	}
	<-reqErr // the stuck request observed the hard close
}

func TestRecoveredPanicKeepsServing(t *testing.T) {
	srv := &Server{
		Name: "flaky",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/panic" {
				panic("boom")
			}
			w.WriteHeader(http.StatusOK)
		}),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client := srv.Client()

	resp, err := client.Get(srv.URL() + "/panic")
	if err != nil {
		t.Fatalf("panicking request should still answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic answered %d, want 500", resp.StatusCode)
	}

	resp, err = client.Get(srv.URL() + "/ok")
	if err != nil {
		t.Fatalf("server died after a panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request answered %d, want 200", resp.StatusCode)
	}
}

func TestLimitInFlightRejectsExcess(t *testing.T) {
	enter := make(chan struct{})
	release := make(chan struct{})
	srv := &Server{
		Name: "limited",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			enter <- struct{}{}
			<-release
			w.WriteHeader(http.StatusOK)
		}),
		MaxInFlight: 1,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
	}()
	client := srv.Client()

	first := make(chan error, 1)
	go func() {
		resp, err := client.Get(srv.URL() + "/")
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-enter // the only slot is now held

	resp, err := client.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After backpressure hint")
	}

	release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

func TestStartErrors(t *testing.T) {
	if err := (&Server{Name: "nohandler"}).Start(); err == nil {
		t.Fatal("Start with nil handler succeeded")
	}
	srv := &Server{Handler: http.NotFoundHandler()}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if err := srv.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
	if srv.URL() == "" {
		t.Fatal("URL empty after Start")
	}
}

// TestClientIdleConnectionsDoNotDelayShutdown: a connection the client
// dialed but never sent a request on sits in its idle pool and looks
// brand-new (not idle) to the server, which grants such connections
// seconds of grace before a drain may close them. The client Server hands
// out drops its pool when the shutdown begins, so the drain is immediate.
func TestClientIdleConnectionsDoNotDelayShutdown(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := &Server{
		Name: "spare-conn",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/hold" {
				close(entered)
				<-release
			}
		}),
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	client := srv.Client()

	// Reproduce the dial race deterministically: the second request's
	// dial is held back until the request has been served on the first
	// connection, so the connection it yields has no taker and is pooled
	// unused.
	tr := client.Transport.(*http.Transport)
	var dialer net.Dialer
	gate := make(chan struct{})
	dialed := make(chan struct{})
	var dials atomic.Int32
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return dialer.DialContext(ctx, network, addr)
		}
		<-gate
		c, err := dialer.DialContext(ctx, network, addr)
		close(dialed)
		return c, err
	}
	get := func(path string) error {
		resp, err := client.Get(srv.URL() + path)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	held := make(chan error, 1)
	go func() { held <- get("/hold") }()
	<-entered // connection 1 is busy
	second := make(chan error, 1)
	go func() { second <- get("/") }() // no idle connection: starts dial 2
	time.Sleep(50 * time.Millisecond)  // let request 2 queue behind its dial
	close(release)
	for _, c := range []chan error{held, second} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	<-dialed
	time.Sleep(100 * time.Millisecond) // let the server accept it and the transport pool it

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("shutdown took %v with one never-used client connection pooled", el)
	}
}
