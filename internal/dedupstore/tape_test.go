package dedupstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/tarutil"
)

// checkStore proves the store's invariants at quiescence, once every
// background proof has ended: no put, proof or pool write in flight, no
// entry pending, every pool reference accounted for by a recipe member
// or a raw blob, every referenced digest held exactly once — raw in the
// raw backing, or packed, its packed bytes present and inflating to the
// digest's content — in the form pack chooses for that content, and
// nothing else in the backings, every recipe member resolvable at its
// size, and the Stats accounting equal to a recount over the stored blobs
// and the backings' entries.
func checkStore(s *Store) error {
	if err := awaitIdle(s); err != nil {
		return err
	}
	st := s.Stats()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.flights) != 0 {
		return fmt.Errorf("%d blob puts still in flight", len(s.flights))
	}
	if s.cache != nil {
		if n := s.cache.Stats().Inflight; n != 0 {
			return fmt.Errorf("%d reconstruction cache fills still in flight", n)
		}
	}

	var in inflater
	want := make(map[digest.Digest]int64)
	var re Stats
	for d, e := range s.blobs {
		if e.proof != nil {
			return fmt.Errorf("%s is still pending", d.Short())
		}
		re.WireBytes += e.size
		if e.recipeZ == nil {
			re.RawBlobs++
			re.LogicalBytes += e.size
			want[d]++
			continue
		}
		re.Layers++
		re.LogicalBytes += e.logical
		re.RecipeBytes += int64(len(e.recipeZ))
		re.TotalFiles += e.files
		rb, err := inflateRecipe(e.recipeZ)
		if err != nil {
			return fmt.Errorf("recipe of %s: %w", d.Short(), err)
		}
		c, err := openRecipe(rb.enc.Bytes())
		var logical, files int64
		for err == nil && c.next() {
			if c.dir {
				continue
			}
			var k spelled
			c.spell(&k)
			want[digest.Digest(k[:])]++
			logical += c.size
			files++
			rc, size, oerr := s.pool.open(&k, &in)
			if oerr != nil {
				err = fmt.Errorf("member %s: %w", c.name, oerr)
				break
			}
			rc.Close()
			if size != c.size {
				err = fmt.Errorf("member %s: pool holds %d bytes, recipe says %d", c.name, size, c.size)
			}
		}
		if err == nil {
			err = c.err
		}
		putRecipeBuf(rb)
		if err != nil {
			return fmt.Errorf("recipe of %s: %w", d.Short(), err)
		}
		if logical != e.logical || files != e.files {
			return fmt.Errorf("recipe of %s walks %d files / %d bytes, entry counts %d / %d", d.Short(), files, logical, e.files, e.logical)
		}
	}

	// The pool's entries from every shard, and its distinct backings:
	// shards may share them, as NewDiskPool's do.
	entries := make(map[digest.Digest]poolEntry)
	var raws, packs []blobstore.Store
	for i, sh := range s.pool.shards {
		sh.mu.Lock()
		flights := len(sh.flights)
		shard := maps.Clone(sh.entries)
		sh.mu.Unlock()
		if flights != 0 {
			return fmt.Errorf("pool shard %d: %d writes still in flight", i, flights)
		}
		for d, e := range shard {
			if k := spell(d); e.d != d || e.refs <= 0 || s.pool.shardFor(&k) != sh {
				return fmt.Errorf("pool shard %d: entry %s holds digest %s and %d references", i, d.Short(), e.d.Short(), e.refs)
			}
			entries[d] = e
		}
		if !slices.Contains(raws, sh.backing) {
			raws = append(raws, sh.backing)
		}
		if !slices.Contains(packs, sh.packed) {
			packs = append(packs, sh.packed)
		}
	}
	raw := make(map[digest.Digest]bool)
	for _, b := range raws {
		for _, d := range b.Digests() {
			raw[d] = true
			n, _ := b.Stat(d)
			re.FileBytes += n
			re.PoolBytes += n
		}
	}
	keys := make(map[digest.Digest]bool)
	for _, b := range packs {
		for _, k := range b.Digests() {
			keys[k] = true
			n, _ := b.Stat(k)
			re.PoolBytes += n
		}
	}
	got := make(map[digest.Digest]int64)
	var pk packer
	for d, e := range entries {
		if packed := e.key != ""; raw[d] == packed {
			return fmt.Errorf("pool holds %s raw=%v packed=%v, want exactly one", d.Short(), raw[d], packed)
		}
		if e.key != "" && !keys[e.key] {
			return fmt.Errorf("pool: packed bytes of %s are missing", d.Short())
		}
		// Read it back, whichever form holds it: the content must be
		// exactly the digest's, and held in the form pack chooses for it.
		k := spell(d)
		rc, size, err := s.pool.open(&k, &in)
		if err != nil {
			return fmt.Errorf("pool: opening %s: %w", d.Short(), err)
		}
		content, err := io.ReadAll(rc)
		rc.Close()
		if n := int64(len(content)); err != nil || n != size || size != e.size || digest.FromBytes(content) != d {
			return fmt.Errorf("pool: %s reads back %d of %d bytes (%v), digest %s", d.Short(), n, e.size, err, digest.FromBytes(content).Short())
		}
		switch z := pack(content, &pk); {
		case z == nil && e.key != "":
			return fmt.Errorf("pool holds %s packed, but the rule keeps its %d bytes raw", d.Short(), size)
		case z != nil && e.key == "":
			return fmt.Errorf("pool holds %s raw, but the rule packs its %d bytes to %d", d.Short(), size, len(z))
		case z != nil && digest.FromBytes(z) != e.key:
			return fmt.Errorf("pool holds %s packed as %s, not as the rule packs it", d.Short(), e.key.Short())
		}
		if e.key != "" {
			delete(keys, e.key)
			re.FileBytes += e.size
		}
		got[d] = e.refs
	}
	if len(keys) != 0 {
		return fmt.Errorf("pool holds %d packed forms no entry owns", len(keys))
	}
	for d := range raw {
		if _, ok := entries[d]; !ok {
			return fmt.Errorf("pool backs unreferenced %s", d.Short())
		}
	}
	for d, n := range want {
		if got[d] != n {
			return fmt.Errorf("pool refcount of %s is %d, recipes and raw blobs hold %d", d.Short(), got[d], n)
		}
	}
	for d, n := range got {
		if want[d] != n {
			return fmt.Errorf("pool refcount of %s is %d, recipes and raw blobs hold %d", d.Short(), n, want[d])
		}
	}

	re.UniqueFiles = len(got)
	if st != re {
		return fmt.Errorf("Stats %+v, recount %+v", st, re)
	}
	return nil
}

// The store tape's alphabet. Each goroutine owns tapeLayers layers and
// tapeRaws raw blobs, so one goroutine's reference map is exact for them;
// the tapeShared shared layers are pushed by everyone and never deleted.
// Layers share member files across goroutines, so pool claims contend,
// and the first two raw blobs of a goroutine are byte-equal to members of
// its layers (and of others'), so a raw put can find its digest pooled.
// One shared member and every goroutine's second raw blob are tapeProse,
// which the pool packs: contention, failed streams, deletes under readers
// and a raw blob equal to a member all reach packed entries too. Each
// goroutine's foreign layer, sharing a member with its layers, does not
// reassemble bit-identically: every put of it is committed verbatim, by
// the put or by a background prover. Its last blob is a layer of small
// tapeProse files, 256 B to 4 KiB, on both sides of the packing floor,
// one of them in every goroutine's small layer.
const (
	tapeGoroutines = 4 // most a tape runs
	tapeLayers     = 3
	tapeRaws       = 3
	tapeShared     = 2
	tapeForeign    = tapeLayers + tapeRaws + tapeShared // the foreign layer's index
	tapeSmall      = tapeForeign + 1                    // the small files' layer's index
	tapeBlobs      = tapeSmall + 1
	tapeMaxOps     = 96
)

// tapeIsShared reports whether blob i is one of the shared layers.
func tapeIsShared(i int) bool { return i >= tapeLayers+tapeRaws && i < tapeForeign }

// The store tape's operations.
const (
	opPut        = iota // Put of the whole blob
	opPutStream         // PutStream to EOF
	opPutFailing        // PutStream whose stream fails mid-body
	opPutCorrupt        // PutStream of the blob with one byte flipped
	opGet               // Get, read a prefix or all of it, Close or hold it across the next op
	opDelete            // Delete (a Get for shared layers)
	tapeOps
)

var (
	tapeBlobsOnce sync.Once
	// tapeBlobSet[g][i] is goroutine g's blob i; the shared layers are
	// the same bytes in every row.
	tapeBlobSet [tapeGoroutines][tapeBlobs][]byte
)

// tapeText is deterministic, not tar, not gzip: file contents and raw
// blobs alike.
func tapeText(seed, size int) []byte {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := make([]byte, size)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return b
}

// tapeProse is deterministic text the pool packs: words from a small
// vocabulary, far under half its size at BestSpeed.
func tapeProse(seed, size int) []byte {
	words := []string{"layer", "image", "file", "pull", "push", "tag", "hub", "pool"}
	rng := rand.New(rand.NewSource(int64(seed)))
	b := make([]byte, 0, size+8)
	for len(b) < size {
		b = append(b, words[rng.Intn(len(words))]...)
		b = append(b, ' ')
	}
	return b[:size]
}

func tapeLayer(files [][]byte) []byte {
	var buf bytes.Buffer
	b := tarutil.NewGzipBuilder(&buf)
	b.Dir("app")
	for i, f := range files {
		b.File(fmt.Sprintf("app/f%d", i), f)
	}
	b.Close()
	return buf.Bytes()
}

func storeTapeBlobs(tb testing.TB) *[tapeGoroutines][tapeBlobs][]byte {
	tapeBlobsOnce.Do(func() {
		var shared [4][]byte
		for i := range shared {
			shared[i] = tapeText(100+i, 300+400*i)
		}
		shared[1] = tapeProse(101, 6<<10)
		var owned [tapeGoroutines][2][]byte
		for g := range owned {
			owned[g][0] = tapeText(200+10*g, 500)
			owned[g][1] = tapeProse(201+10*g, 5<<10)
		}
		var sharedLayers [tapeShared][]byte
		for m := range sharedLayers {
			sharedLayers[m] = tapeLayer([][]byte{shared[m+2], owned[m][0], owned[m+1][1], tapeText(300+m, 700)})
		}
		for g := range tapeBlobSet {
			for k := 0; k < tapeLayers; k++ {
				tapeBlobSet[g][k] = tapeLayer([][]byte{
					tapeText(400+10*g+k, 600), shared[k], shared[k+1],
					owned[(g+k)%tapeGoroutines][k%2], owned[g][(k+1)%2],
				})
			}
			tapeBlobSet[g][tapeLayers] = owned[g][0]
			tapeBlobSet[g][tapeLayers+1] = owned[g][1]
			tapeBlobSet[g][tapeLayers+2] = []byte(fmt.Sprintf(`{"architecture":"amd64","goroutine":%d}`, g))
			for m := 0; m < tapeShared; m++ {
				tapeBlobSet[g][tapeLayers+tapeRaws+m] = sharedLayers[m]
			}
			tapeBlobSet[g][tapeForeign] = foreignTar(tb, map[string][]byte{
				"etc/shared": shared[0], "etc/owned": owned[g][0], "etc/own": tapeText(500+g, 400),
			})
			small := [][]byte{tapeProse(700, 1<<10)}
			for j, size := range []int{packMinSize - 1, packMinSize, 700, 2 << 10, 4<<10 - 1} {
				small = append(small, tapeProse(710+10*g+j, size))
			}
			tapeBlobSet[g][tapeSmall] = tapeLayer(small)
		}
	})
	return &tapeBlobSet
}

var errMidBody = errors.New("stream broke mid-body")

// storeTapeDeadline bounds one tape's run; the slowest seed takes
// milliseconds.
const storeTapeDeadline = 30 * time.Second

// runStoreTape decodes a tape and runs it against a fresh store. The first
// byte picks the goroutine count, the pool's shard count and whether the
// store has a reconstruction cache; every following triple is one
// operation: (goroutine and op, blob, parameter). Each goroutine runs its
// operations in tape order, concurrently with the others, and checks each
// result against its own sequential reference map. At quiescence the store
// must hold exactly what the maps say, serve it byte-exact and pass
// checkStore, and once every blob is deleted the pool must be empty. A
// tape whose goroutines have not finished within storeTapeDeadline fails
// instead of hanging.
func runStoreTape(t *testing.T, tape []byte) {
	if len(tape) == 0 {
		return
	}
	blobs := storeTapeBlobs(t)
	n := 2 + int(tape[0])%(tapeGoroutines-1)
	cfg := Config{}
	if tape[0]&0x10 != 0 {
		cfg.CacheBytes = 16 << 10
	}
	s := NewWithConfig(NewMemoryPool(1+int(tape[0]>>5)%4), cfg)

	ops := make([][][3]byte, n)
	for i := 1; i+2 < len(tape) && i < 1+3*tapeMaxOps; i += 3 {
		g := int(tape[i]) % n
		ops[g] = append(ops[g], [3]byte{tape[i] / byte(n) % tapeOps, tape[i+1] % tapeBlobs, tape[i+2]})
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		stored   [tapeShared]bool // a shared layer some put stored
		present  = make([][tapeBlobs]bool, n)
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("goroutine %d: ", g)+fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			have := &present[g]
			// held is a reader a Get left open across the next operation,
			// with the blob it must finish reading and that blob's index.
			var held io.ReadCloser
			var heldBlob []byte
			var heldAt, heldIdx int
			finish := func(what string) {
				if held == nil {
					return
				}
				rest, err := io.ReadAll(held)
				held.Close()
				if err != nil || !bytes.Equal(rest, heldBlob[len(heldBlob)-len(rest):]) {
					fail("%s: a reader held across it finished with %d bytes (%v), not the blob's tail", what, len(rest), err)
				}
				held = nil
			}
			defer finish("the tape's end")
			for step, op := range ops[g] {
				code, i, param := op[0], int(op[1]), int(op[2])
				blob := blobs[g][i]
				d := digest.FromBytes(blob)
				shared := tapeIsShared(i)
				if shared && code == opDelete {
					code = opGet
				}
				what := fmt.Sprintf("step %d: op %d on blob %d", step, code, i)
				// A held reader may still be filling the reconstruction
				// cache, and a Get waiting on that fill from the same
				// goroutine would wait forever: GetOrFill's Miss reader
				// must be read to the end first. With both blobs shared,
				// two goroutines could each wait on the other's fill. A
				// server serves each request on its own goroutine, so it
				// never does either; finish the held reader first.
				heldShared := tapeIsShared(heldIdx)
				if held != nil && (step > heldAt+1 || code == opGet && (i == heldIdx || shared && heldShared)) {
					finish(what)
				}
				switch code {
				case opPut, opPutStream:
					var err error
					if code == opPut {
						_, err = s.Put(blob)
					} else {
						var got int64
						got, err = s.PutStream(d, bytes.NewReader(blob))
						if err == nil && got != int64(len(blob)) {
							fail("%s: PutStream read %d of %d bytes", what, got, len(blob))
						}
					}
					if err != nil {
						fail("%s: %v", what, err)
						continue
					}
					have[i] = true
					if shared {
						mu.Lock()
						stored[i-tapeLayers-tapeRaws] = true
						mu.Unlock()
					}
				case opPutFailing:
					cut := param * len(blob) / 256
					r := io.MultiReader(bytes.NewReader(blob[:cut]), iotest.ErrReader(errMidBody))
					if _, err := s.PutStream(d, r); err == nil {
						fail("%s: a stream broken at byte %d was accepted", what, cut)
					}
				case opPutCorrupt:
					bad := bytes.Clone(blob)
					bad[param*len(bad)/256] ^= 0x5a
					if _, err := s.PutStream(d, bytes.NewReader(bad)); err == nil {
						fail("%s: a corrupt stream was accepted", what)
					}
				case opGet:
					rc, size, err := s.Get(d)
					if err != nil {
						if have[i] || !errors.Is(err, blobstore.ErrNotFound) {
							fail("%s: Get: %v", what, err)
						}
						continue
					}
					if !have[i] && !shared {
						fail("%s: Get found a blob never stored or deleted", what)
					}
					if size != int64(len(blob)) {
						fail("%s: Get size %d, want %d", what, size, len(blob))
					}
					var got []byte
					if param%4 == 0 {
						var buf bytes.Buffer
						_, err = io.Copy(&buf, rc)
						got = buf.Bytes()
					} else {
						got = make([]byte, param*len(blob)/256)
						_, err = io.ReadFull(rc, got)
					}
					if err != nil || !bytes.Equal(got, blob[:len(got)]) {
						fail("%s: read %d bytes (%v), not the blob's", what, len(got), err)
					}
					if param%4 == 1 && held == nil {
						// Finish this read after the next operation.
						held, heldBlob, heldAt, heldIdx = rc, blob, step, i
						continue
					}
					rc.Close()
				case opDelete:
					err := s.Delete(d)
					if have[i] != (err == nil) || err != nil && !errors.Is(err, blobstore.ErrNotFound) {
						fail("%s: Delete with the blob stored=%v: %v", what, have[i], err)
					}
					have[i] = false
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), storeTapeDeadline)
	defer cancel()
	select {
	case <-finished:
	case <-ctx.Done():
		t.Fatalf("tape %x: not finished after %v", tape, storeTapeDeadline)
	}
	if len(failures) > 0 {
		t.Fatalf("tape %x:\n%s", tape, failures[0])
	}

	for g := 0; g < n; g++ {
		for i, blob := range blobs[g] {
			want := present[g][i]
			if tapeIsShared(i) {
				want = stored[i-tapeLayers-tapeRaws]
			}
			d := digest.FromBytes(blob)
			if s.Has(d) != want {
				t.Fatalf("tape %x: goroutine %d blob %d: stored=%v, reference says %v", tape, g, i, s.Has(d), want)
			}
			if want {
				if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
					t.Fatalf("tape %x: goroutine %d blob %d reads back wrong bytes", tape, g, i)
				}
				// Layers that reproduce are recipes; raw blobs and the
				// foreign layer are held verbatim.
				if recipe := s.Recipe(d) != nil; recipe != (i < tapeLayers || tapeIsShared(i) || i == tapeSmall) {
					t.Fatalf("tape %x: goroutine %d blob %d stored as a recipe: %v", tape, g, i, recipe)
				}
			}
		}
	}
	if err := checkStore(s); err != nil {
		t.Fatalf("tape %x: %v", tape, err)
	}
	for _, d := range s.Digests() {
		if err := s.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkStore(s); err != nil {
		t.Fatalf("tape %x: after deleting everything: %v", tape, err)
	}
	if n, _ := s.pool.census(); n != 0 || s.pool.TotalBytes() != 0 {
		t.Fatalf("tape %x: %d digests, %d bytes pooled after deleting everything", tape, n, s.pool.TotalBytes())
	}
}

// storeTapeSeeds are hand-written tapes, each aimed at one path; the
// committed fuzz corpus holds the same tapes.
var storeTapeSeeds = map[string][]byte{
	// A raw blob whose bytes a layer already pooled is put with a stream
	// that breaks: the blob is read whole before the pool sees it, so the
	// failed put must take no reference.
	"raw-held-fails": {0x00,
		0 + 2*opPutStream, 0, 0,
		0 + 2*opPutFailing, tapeLayers, 128,
		0 + 2*opPutFailing, tapeLayers + 1, 0},
	// Every goroutine pushes the shared layers and layers sharing files,
	// some with streams that break, and reads them back through the cache.
	"shared-contention": {0x32,
		0 + 4*opPutFailing, tapeLayers + tapeRaws, 100,
		1 + 4*opPutStream, tapeLayers + tapeRaws, 0,
		2 + 4*opPut, tapeLayers + tapeRaws, 0,
		3 + 4*opPutStream, tapeLayers + tapeRaws + 1, 0,
		0 + 4*opPutStream, 0, 0,
		1 + 4*opPutStream, 1, 0,
		2 + 4*opPutStream, 2, 0,
		3 + 4*opPutCorrupt, 0, 50,
		0 + 4*opGet, 0, 64,
		1 + 4*opGet, tapeLayers + tapeRaws, 0,
		2 + 4*opDelete, 2, 0,
		3 + 4*opPutStream, tapeLayers, 0,
		0 + 4*opDelete, 0, 0,
		1 + 4*opGet, 1, 3},
	// A Get holds its reader, still filling the reconstruction cache,
	// across a second Get of the same layer on the same goroutine.
	"held-get-same-digest": {0x10,
		0 + 3*opPut, 0, 0,
		0 + 3*opGet, 0, 5,
		0 + 3*opGet, 0, 0},
	// A raw blob is put before the layer carrying the same bytes, and
	// packs as the member would have; another goroutine's raw blob finds
	// its bytes pooled packed by a shared layer, is read back whole and
	// through a held reader, and is deleted under that reader.
	"raw-blob-equals-packed-member": {0x00,
		0 + 2*opPutStream, tapeLayers + 1, 0,
		0 + 2*opPutStream, 0, 0,
		1 + 2*opPutStream, tapeLayers + tapeRaws, 0,
		1 + 2*opPut, tapeLayers + 1, 0,
		1 + 2*opGet, tapeLayers + 1, 0,
		1 + 2*opGet, tapeLayers + 1, 1,
		1 + 2*opDelete, tapeLayers + 1, 0,
		0 + 2*opDelete, tapeLayers + 1, 0,
		0 + 2*opGet, 0, 0},
	// Four goroutines claim the packed shared member at once through
	// layers 0 and 1, one stream breaking after it and one corrupt; held
	// readers through the cache see their layers deleted.
	"packed-claims-contend": {0x74,
		0 + 4*opPutStream, 0, 0,
		1 + 4*opPutFailing, 0, 200,
		2 + 4*opPutStream, 1, 0,
		3 + 4*opPutCorrupt, 1, 128,
		1 + 4*opPutStream, 0, 0,
		3 + 4*opPut, 1, 0,
		0 + 4*opGet, 0, 5,
		2 + 4*opGet, 1, 0,
		0 + 4*opDelete, 0, 0,
		1 + 4*opDelete, 0, 0,
		2 + 4*opDelete, 1, 0,
		3 + 4*opGet, 1, 9},
	// A reader pins a layer that its own goroutine then deletes.
	"delete-while-read": {0x01,
		0 + 3*opPutStream, 1, 0,
		1 + 3*opPutStream, 1, 0,
		0 + 3*opGet, 1, 200,
		0 + 3*opDelete, 1, 0,
		1 + 3*opPutFailing, tapeLayers + 1, 255,
		1 + 3*opDelete, tapeLayers + 1, 0},

	// Two goroutines push their foreign layers, one streaming and one
	// whole, and read them back through a held reader; a layer sharing
	// the foreign layers' members is deleted and pushed again around
	// them, and one foreign layer is deleted while a prover may still
	// hold it.
	"foreign-layer": {0x01,
		0 + 3*opPutStream, 0, 0,
		0 + 3*opPutStream, tapeForeign, 0,
		1 + 3*opPut, tapeForeign, 0,
		1 + 3*opPutStream, 1, 0,
		0 + 3*opGet, tapeForeign, 1,
		0 + 3*opDelete, 0, 0,
		1 + 3*opDelete, tapeForeign, 0,
		0 + 3*opPutStream, 0, 0,
		1 + 3*opPutStream, tapeForeign, 0,
		0 + 3*opGet, tapeForeign, 0,
		1 + 3*opPutCorrupt, tapeForeign, 9,
		1 + 3*opGet, tapeForeign, 0},

	// Four goroutines push their small layers at once, claiming the
	// packed member they share, one stream breaking after it and one
	// corrupt; a held reader sees its layer deleted, and the layers are
	// pushed again over what the deletes left pooled.
	"small-packed-members": {0x32,
		0 + 4*opPutStream, tapeSmall, 0,
		1 + 4*opPut, tapeSmall, 0,
		2 + 4*opPutFailing, tapeSmall, 180,
		3 + 4*opPutCorrupt, tapeSmall, 60,
		2 + 4*opPutStream, tapeSmall, 0,
		0 + 4*opGet, tapeSmall, 1,
		1 + 4*opDelete, tapeSmall, 0,
		0 + 4*opDelete, tapeSmall, 0,
		3 + 4*opPutStream, tapeSmall, 0,
		2 + 4*opGet, tapeSmall, 0,
		1 + 4*opPutStream, tapeSmall, 0,
		0 + 4*opPutStream, tapeSmall, 0},
}

// TestStoreTape runs the hand-written tapes and a fixed set of random ones.
func TestStoreTape(t *testing.T) {
	for name, tape := range storeTapeSeeds {
		t.Run(name, func(t *testing.T) { runStoreTape(t, tape) })
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		tape := make([]byte, 1+3*(10+rng.Intn(40)))
		rng.Read(tape)
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) { runStoreTape(t, tape) })
	}
}

// FuzzStoreTape explores op-tapes from the corpus under
// testdata/fuzz/FuzzStoreTape.
func FuzzStoreTape(f *testing.F) {
	f.Fuzz(func(t *testing.T, tape []byte) { runStoreTape(t, tape) })
}
