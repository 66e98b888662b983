package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// clients is the closed-loop client count of the end-to-end run: each
	// goroutine sends its next op when its previous one completes, as each
	// worker of the paper's downloader does. The sandbox has two
	// processors and GOMAXPROCS is left at Go's default (recorded), so
	// there are never more clients than processors. The traced run uses
	// one (see runTraced).
	clients = 2
	// defaultSetups is how many times the end-to-end run builds its
	// topology and runs the warm-up round; setup_s is their median.
	defaultSetups = 3
	// minRounds is the fewest measured rounds a timed run accepts.
	minRounds = 5
	// maxRounds caps a timed run whose rounds turn out very short.
	maxRounds = 64
	// minTracePairs is the fewest untraced/traced round pairs of a traced run.
	minTracePairs = 2
)

// cpuNs is the process's user+system CPU time: client goroutines and the
// in-process servers together.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stolenTicks reads the machine's cumulative steal time and total time in
// clock ticks from /proc/stat: what the hypervisor took from all of the
// guest's processors. Both are 0 where the file is missing or has no steal
// column.
func stolenTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stolenShare is the share of the machine's processor time the hypervisor
// took since the (steal0, total0) reading. It is a diagnostic in the record
// — a round that ran beside a busy neighbour says so — and corrects nothing.
func stolenShare(steal0, total0 int64) float64 {
	steal, total := stolenTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// gcCPUSeconds is the CPU the runtime has spent on garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// roundResult is what one round of the op list measured.
type roundResult struct {
	Ops    int   `json:"ops"`
	Failed int   `json:"failed"`
	Bytes  int64 `json:"user_bytes"`
	WallNs int64 `json:"wall_ns"`
	CPUNs  int64 `json:"cpu_ns"`
	// StealShare is the share of the machine's processor time the
	// hypervisor took during the round (stolenShare): a diagnostic.
	StealShare float64 `json:"steal_share"`
	BusyNs     int64   `json:"client_busy_ns"` // sum of op latencies
	// ActiveNs sums, over the clients, the time from the round's start to
	// the end of the client's last op.
	ActiveNs  int64   `json:"client_active_ns"`
	Alloc     uint64  `json:"alloc_bytes"`
	Mallocs   uint64  `json:"mallocs"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCCPUS    float64 `json:"gc_cpu_s"`
	VerifyNs  int64   `json:"verify_ns,omitempty"`
	Goroutine int     `json:"goroutines_peak,omitempty"`

	latMs    []float64
	firstErr error
}

// runRound executes ops once on n closed-loop clients: each takes the next
// op of the list when its previous one completes, so the list's order is
// the order ops start in. A traced round (tr != nil) must have one client.
func runRound(ctx context.Context, st stack, ops []int64, n int, tr *tracer) roundResult {
	res := roundResult{Ops: len(ops), latMs: make([]float64, len(ops))}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuNs()
	steal0, total0 := stolenTicks()
	t0 := time.Now()

	var next atomic.Int64
	var mu sync.Mutex // guards res while clients fold their totals in
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oc := newOpCtx(tr)
			var busy, active, moved int64
			var failed, goroutines int
			var firstErr error
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				start := time.Now()
				id := tr.begin(spanOp)
				got, err := st.do(ctx, ops[i], oc)
				tr.end(id)
				lat := time.Since(start)
				busy += int64(lat)
				active = int64(time.Since(t0))
				res.latMs[i] = float64(lat) / 1e6
				moved += got
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
				if tr != nil {
					goroutines = max(goroutines, runtime.NumGoroutine())
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.BusyNs += busy
			res.ActiveNs += active
			res.Bytes += moved
			res.Failed += failed
			res.VerifyNs += oc.verifyNs
			res.Goroutine = max(res.Goroutine, goroutines)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}()
	}
	wg.Wait()

	res.WallNs = int64(time.Since(t0))
	res.StealShare = stolenShare(steal0, total0)
	res.CPUNs = cpuNs() - cpu0
	res.GCCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	res.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.GCCycles = ms1.NumGC - ms0.NumGC
	return res
}

// idleShare is the share of the clients' time in the rounds spent outside
// an op while they still had ops to send: the generator's own overhead. A
// client that has run out of ops while another finishes the round's last
// one is done, not idle.
func idleShare(rounds []roundResult) float64 {
	var active, busy int64
	for _, r := range rounds {
		active += r.ActiveNs
		busy += r.BusyNs
	}
	if active == 0 {
		return 0
	}
	return 1 - float64(busy)/float64(active)
}

// --- floors -----------------------------------------------------------------

// sha256Burst is how long the sha256 floor, the denominator of
// cpu_x_sha256_floor, is measured; floorBurst is the length of the other
// three calibrations, which are only read beside it.
const (
	sha256Burst = 2 * time.Second
	floorBurst  = 500 * time.Millisecond
)

// floorInput is compressible, deterministic calibration data shaped like
// the corpus's layer content: runs of repeated and of random bytes.
func floorInput(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, n)
	for i := 0; i < n; {
		run := 64 + rng.Intn(960)
		if i+run > n {
			run = n - i
		}
		if rng.Intn(2) == 0 {
			rng.Read(b[i : i+run])
		} else {
			for k := i; k < i+run; k++ {
				b[k] = byte(i)
			}
		}
		i += run
	}
	return b
}

// burst runs f over and over for d and returns the CPU nanoseconds per
// byte f processed.
func burst(d time.Duration, f func() int) float64 {
	var n int64
	cpu0 := cpuNs()
	t0 := time.Now()
	for time.Since(t0) < d {
		n += int64(f())
	}
	return float64(cpuNs()-cpu0) / float64(n)
}

// floors measures the machine's per-byte costs the program cannot beat.
type floors struct {
	sha256Burst, burst time.Duration // lengths of the measurements
	input              []byte
	gz                 []byte
}

func newFloors(sha256Burst, burst time.Duration) *floors {
	f := &floors{sha256Burst: sha256Burst, burst: burst, input: floorInput(1 << 20)}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(f.input)
	zw.Close()
	f.gz = buf.Bytes()
	return f
}

func (f *floors) sha256NsPerByte() float64 {
	return burst(f.sha256Burst, func() int {
		sha256.Sum256(f.input)
		return len(f.input)
	})
}

func (f *floors) gunzipNsPerByte() float64 {
	return burst(f.burst, func() int {
		zr, err := gzip.NewReader(bytes.NewReader(f.gz))
		if err != nil {
			return 1
		}
		n, _ := io.Copy(io.Discard, zr)
		return int(n)
	})
}

func (f *floors) gzipNsPerByte() float64 {
	zw := gzip.NewWriter(io.Discard)
	return burst(f.burst, func() int {
		zw.Reset(io.Discard)
		zw.Write(f.input)
		zw.Close()
		return len(f.input)
	})
}

func (f *floors) memcpyNsPerByte() float64 {
	dst := make([]byte, len(f.input))
	return burst(f.burst, func() int { return copy(dst, f.input) })
}

// mbPerCPUSecond converts ns/byte into MB per CPU second.
func mbPerCPUSecond(nsPerByte float64) float64 {
	if nsPerByte <= 0 {
		return 0
	}
	return 1e9 / nsPerByte / 1e6
}
