package topology

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
)

// pacer rations a node's egress to a fixed byte rate using virtual-time
// reservations: each write books the interval its bytes occupy at the
// target rate and sleeps until its reservation ends. All of a node's
// connections share one pacer, so the node's *aggregate* rate is capped —
// the shape of a machine's NIC, which is what makes pull throughput scale
// with node count in a single-host study.
type pacer struct {
	bps int64

	mu   sync.Mutex
	next time.Time
}

func newPacer(bps int64) *pacer { return &pacer{bps: bps} }

// reserve books n bytes and returns how long the caller must wait before
// its write is "on the wire".
func (p *pacer) reserve(n int) time.Duration {
	d := time.Duration(float64(n) / float64(p.bps) * float64(time.Second))
	now := engine.SystemNow()
	p.mu.Lock()
	if p.next.Before(now) {
		p.next = now
	}
	p.next = p.next.Add(d)
	wait := p.next.Sub(now)
	p.mu.Unlock()
	return wait
}

// paced wraps a handler so response bodies drain at the pacer's rate.
func paced(h http.Handler, p *pacer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(&pacedWriter{w: w, p: p, ctx: req.Context()}, req)
	})
}

type pacedWriter struct {
	w   http.ResponseWriter
	p   *pacer
	ctx context.Context
}

func (pw *pacedWriter) Header() http.Header  { return pw.w.Header() }
func (pw *pacedWriter) WriteHeader(code int) { pw.w.WriteHeader(code) }

func (pw *pacedWriter) Write(b []byte) (int, error) {
	if wait := pw.p.reserve(len(b)); wait > 0 {
		if err := engine.SleepContext(pw.ctx, wait); err != nil {
			return 0, err
		}
	}
	return pw.w.Write(b)
}
