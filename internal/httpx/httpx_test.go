package httpx

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestNoAcceptEncoding: a request through NewTransport asks for no
// compression, which Go's transport otherwise adds to every request.
func TestNoAcceptEncoding(t *testing.T) {
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		got.Store(req.Header.Values("Accept-Encoding"))
	}))
	defer srv.Close()
	c := &http.Client{Transport: NewTransport()}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	DrainClose(resp.Body)
	if v := got.Load().([]string); len(v) != 0 {
		t.Fatalf("request carried Accept-Encoding %q, want none", v)
	}
}

// TestDrainCloseKeepsTheConnection: error replies closed with DrainClose
// leave their connection in the idle pool, where closing them unread
// costs a dial per request.
func TestDrainCloseKeepsTheConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(io.ReadCloser) error
		want  int64
	}{
		{"DrainClose", DrainClose, 1},
		{"Close", func(rc io.ReadCloser) error { return rc.Close() }, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conns atomic.Int64
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				w.WriteHeader(http.StatusNotFound)
				io.WriteString(w, strings.Repeat("x", 1000))
			}))
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			srv.Start()
			defer srv.Close()
			c := &http.Client{Transport: NewTransport()}
			for i := 0; i < 20; i++ {
				resp, err := c.Get(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				tc.close(resp.Body)
			}
			if got := conns.Load(); got != tc.want {
				t.Fatalf("20 error replies opened %d connections, want %d", got, tc.want)
			}
		})
	}
}

// endless is a body that never ends and counts what is read from it.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) { e.n += int64(len(p)); return len(p), nil }
func (e *endless) Close() error               { return nil }

// TestDrainCloseIsBounded: a body larger than the drain bound is read only
// up to it; dropping its connection is cheaper than reading it.
func TestDrainCloseIsBounded(t *testing.T) {
	var e endless
	if err := DrainClose(&e); err != nil {
		t.Fatal(err)
	}
	if e.n != maxDrain {
		t.Fatalf("DrainClose read %d bytes of an endless body, want %d", e.n, maxDrain)
	}
	if err := DrainClose(http.NoBody); err != nil {
		t.Fatal(err)
	}
}
