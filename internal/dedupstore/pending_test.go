package dedupstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// gatedStore is a pool backing whose reads wait while the test holds gate:
// a proof, which reads every member back, cannot end until it lets go.
// Puts never read the pool, so they pass.
type gatedStore struct {
	blobstore.Store
	gate *sync.RWMutex
}

func (g gatedStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	g.gate.RLock()
	g.gate.RUnlock()
	return g.Store.Get(d)
}

// gatedPool is a memory pool whose reads wait on gate.
func gatedPool(gate *sync.RWMutex) *Pool {
	raw, packed := make([]blobstore.Store, 4), make([]blobstore.Store, 4)
	for i := range raw {
		raw[i] = gatedStore{blobstore.NewMemory(), gate}
		packed[i] = gatedStore{blobstore.NewMemory(), gate}
	}
	return NewPool(raw, packed)
}

// onProcessors runs the rest of the test with GOMAXPROCS at n.
func onProcessors(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// isPending reports whether d's entry waits for its proof.
func isPending(s *Store, d digest.Digest) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.blobs[d]
	return ok && e.proof != nil
}

// awaitIdle waits for the store's puts and background proofs to end, and
// fails after five seconds.
func awaitIdle(s *Store) error {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.RLock()
		busy := s.busy
		s.mu.RUnlock()
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d puts and background proofs still running", busy)
		}
	}
}

// settle waits until no put or proof runs and no prover goroutine is left,
// so that a test goes on from a settled store.
func settle(t testing.TB, s *Store) {
	t.Helper()
	if err := awaitIdle(s); err != nil {
		t.Fatal(err)
	}
	checkNoProvers(t)
}

// checkNoProvers fails unless every prover goroutine has exited.
func checkNoProvers(t testing.TB) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if !bytes.Contains(buf[:n], []byte("dedupstore.(*Store).proveLater(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a prover goroutine is still running:\n%s", buf[:n])
		}
	}
}

// pendingPut pushes blob into s on two processors with the pool's reads
// held, so its proof goes to a prover and stays pending; the caller lets
// the proof go on with gate.Unlock.
func pendingPut(t *testing.T, s *Store, gate *sync.RWMutex, blob []byte) digest.Digest {
	t.Helper()
	gate.Lock()
	d := digest.FromBytes(blob)
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		gate.Unlock()
		t.Fatalf("PutStream: %v", err)
	}
	if !isPending(s, d) {
		gate.Unlock()
		t.Fatal("with a processor idle, the put proved inline")
	}
	if n, err := s.Stat(d); !s.Has(d) || err != nil || n != int64(len(blob)) {
		gate.Unlock()
		t.Fatalf("a pending blob: Has %v, Stat %d, %v", s.Has(d), n, err)
	}
	return d
}

// quiet fails if anything arrives on results within a short wait: what
// sent it did not wait for the pending proof.
func quiet(t *testing.T, results <-chan string) {
	t.Helper()
	select {
	case r := <-results:
		t.Fatalf("%s before the pending proof ended", r)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestPendingGetAndDeleteWaitForProof: a Get, a Delete, and both at once,
// on a blob whose proof is pending return only after the proof has ended;
// a Get serves the proven bytes, or misses once the Delete has won.
func TestPendingGetAndDeleteWaitForProof(t *testing.T) {
	onProcessors(t, 2)
	for _, ops := range [][]string{{"Get"}, {"Delete"}, {"Get", "Delete"}} {
		t.Run(fmt.Sprint(ops), func(t *testing.T) {
			var gate sync.RWMutex
			s := NewWithConfig(gatedPool(&gate), Config{})
			blob := buildLayer(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
			d := pendingPut(t, s, &gate, blob)
			results := make(chan string, len(ops))
			for _, op := range ops {
				go func() {
					if op == "Delete" {
						results <- fmt.Sprintf("Delete: %v", s.Delete(d))
						return
					}
					rc, _, err := s.Get(d)
					if err != nil {
						results <- fmt.Sprintf("Get: %v", err)
						return
					}
					got, err := io.ReadAll(rc)
					rc.Close()
					results <- fmt.Sprintf("Get: %d bytes, exact %v, %v", len(got), bytes.Equal(got, blob), err)
				}()
			}
			quiet(t, results)
			gate.Unlock()
			want := map[string]bool{
				fmt.Sprintf("Get: %d bytes, exact true, <nil>", len(blob)): true,
				"Delete: <nil>": true,
			}
			if len(ops) == 2 {
				want[fmt.Sprintf("Get: %v", &UnknownBlobError{Digest: d})] = true
			}
			for range ops {
				if r := <-results; !want[r] {
					t.Errorf("%s", r)
				}
			}
			if err := checkStore(s); err != nil {
				t.Fatal(err)
			}
			checkNoProvers(t)
		})
	}
}

// TestBackgroundProofFailureCommitsVerbatim: a foreign layer's put returns
// before its proof, counted as a layer; when the prover finds that the
// recipe does not reproduce it, the spooled bytes take the recipe's place,
// and the members it shares with a stored layer stay pooled for that one.
func TestBackgroundProofFailureCommitsVerbatim(t *testing.T) {
	onProcessors(t, 2)
	var gate sync.RWMutex
	s := NewWithConfig(gatedPool(&gate), Config{})
	layer := buildLayer(t, map[string]string{"passwd": "root:x:0:0\n", "b.txt": "beta"})
	putStream(t, s, layer)
	blob := foreignLayer(t)
	d := pendingPut(t, s, &gate, blob)
	if st := s.Stats(); st.Layers != 2 || st.RawBlobs != 0 {
		gate.Unlock()
		t.Fatalf("pending: %d layers, %d raw blobs, want 2 and 0", st.Layers, st.RawBlobs)
	}
	gate.Unlock()
	if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
		t.Fatal("the foreign layer did not round-trip verbatim")
	}
	if got := readBlob(t, s, digest.FromBytes(layer)); !bytes.Equal(got, layer) {
		t.Fatal("the layer sharing its member no longer round-trips")
	}
	if st := s.Stats(); st.Layers != 1 || st.RawBlobs != 1 {
		t.Fatalf("proven: %d layers, %d raw blobs, want 1 and 1", st.Layers, st.RawBlobs)
	}
	if err := s.Delete(digest.FromBytes(layer)); err != nil {
		t.Fatal(err)
	}
	checkVerbatim(t, s, blob)
	checkNoProvers(t)
}

// TestOneProcessorProvesInline: with GOMAXPROCS at 1 no processor is ever
// idle, so every put proves before it returns, a reproducible layer and a
// foreign one alike, and leaves nothing pending.
func TestOneProcessorProvesInline(t *testing.T) {
	onProcessors(t, 1)
	for name, blob := range map[string][]byte{
		"reproducible": buildLayer(t, map[string]string{"a.txt": "alpha"}),
		"foreign":      foreignLayer(t),
	} {
		t.Run(name, func(t *testing.T) {
			var gate sync.RWMutex
			s := NewWithConfig(gatedPool(&gate), Config{})
			d := digest.FromBytes(blob)
			gate.Lock()
			results := make(chan string, 1)
			go func() {
				_, err := s.PutStream(d, bytes.NewReader(blob))
				results <- fmt.Sprintf("PutStream: %v", err)
			}()
			quiet(t, results)
			gate.Unlock()
			if r := <-results; r != "PutStream: <nil>" {
				t.Fatal(r)
			}
			if isPending(s, d) {
				t.Fatal("a put left its blob pending on one processor")
			}
			if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
				t.Fatal("blob did not round-trip")
			}
			if err := checkStore(s); err != nil {
				t.Fatal(err)
			}
			checkNoProvers(t)
		})
	}
}

// TestOneProverOnTwoProcessors: on two processors a put hands its proof
// over only while no other put or proof runs, so while one prover is busy
// the next put proves inline.
func TestOneProverOnTwoProcessors(t *testing.T) {
	onProcessors(t, 2)
	var gate sync.RWMutex
	s := NewWithConfig(gatedPool(&gate), Config{})
	pendingPut(t, s, &gate, buildLayer(t, map[string]string{"a.txt": "alpha"}))
	second := buildLayer(t, map[string]string{"b.txt": "beta"})
	results := make(chan string, 1)
	go func() {
		_, err := s.PutStream(digest.FromBytes(second), bytes.NewReader(second))
		results <- fmt.Sprintf("PutStream: %v", err)
	}()
	// Proving inline, the second put cannot return while reads are held.
	quiet(t, results)
	gate.Unlock()
	if r := <-results; r != "PutStream: <nil>" {
		t.Fatal(r)
	}
	if isPending(s, digest.FromBytes(second)) {
		t.Fatal("a second proof went to the background while the first ran")
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
	checkNoProvers(t)
}

// TestPutLeavesTheCallerItsBytes: a Put's bytes are the caller's again
// when it returns. A foreign layer of up to 1 MiB goes pending with a copy
// of them in its spool; one over 1 MiB, whose spool is the caller's bytes,
// proves inline. Scribbling over either after Put returns does not reach
// the verbatim commit.
func TestPutLeavesTheCallerItsBytes(t *testing.T) {
	onProcessors(t, 2)
	big := make([]byte, maxFilePrealloc+1<<10)
	rand.New(rand.NewSource(6)).Read(big)
	for name, blob := range map[string][]byte{
		"small": foreignLayer(t),
		"large": foreignTar(t, map[string][]byte{"big.bin": big}),
	} {
		t.Run(name, func(t *testing.T) {
			if large := len(blob) > maxFilePrealloc; large != (name == "large") {
				t.Fatalf("the %s layer is %d bytes", name, len(blob))
			}
			want := bytes.Clone(blob)
			var gate sync.RWMutex
			s := NewWithConfig(gatedPool(&gate), Config{})
			gate.Lock()
			results := make(chan error, 1)
			go func() {
				_, err := s.Put(blob)
				results <- err
			}()
			var err error
			if name == "small" {
				err = <-results // pending, its proof held at the gate
			} else {
				select {
				case <-results:
					gate.Unlock()
					t.Fatal("a Put over 1 MiB returned before its proof")
				case <-time.After(20 * time.Millisecond):
				}
				gate.Unlock()
				err = <-results
			}
			clear(blob)
			if name == "small" {
				gate.Unlock()
			}
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			checkVerbatim(t, s, want)
			checkNoProvers(t)
		})
	}
}
