package tarutil

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleBuilder is the Builder as it was written over archive/tar.Writer,
// the reference FuzzBuild and TestBuildMatchesArchiveTar hold Builder to.
type oracleBuilder struct {
	tw  *tar.Writer
	err error
}

var oracleModTime = time.Date(2017, 5, 30, 0, 0, 0, 0, time.UTC)

func (b *oracleBuilder) Dir(name string) error {
	if b.err != nil {
		return b.err
	}
	name = strings.TrimSuffix(name, "/") + "/"
	b.err = b.tw.WriteHeader(&tar.Header{Typeflag: tar.TypeDir, Name: name, Mode: 0o755, ModTime: oracleModTime})
	return b.err
}

func (b *oracleBuilder) File(name string, content []byte) error {
	if b.err != nil {
		return b.err
	}
	b.err = b.tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: name, Mode: 0o644, Size: int64(len(content)), ModTime: oracleModTime})
	if b.err != nil {
		return b.err
	}
	_, b.err = b.tw.Write(content)
	return b.err
}

func (b *oracleBuilder) Close() error {
	if b.err != nil {
		return b.err
	}
	return b.tw.Close()
}

// buildOp is one entry of a differential build: a directory, or a file of
// size bytes that the Builder takes through File, or through Member from a
// reader (one that hides its WriterTo when copy is set, so the Builder's
// copy buffer carries the data).
type buildOp struct {
	dir    bool
	member bool
	copy   bool
	name   string
	size   int
}

// content is a file's data: size bytes of a pattern.
func (op buildOp) content() []byte {
	b := make([]byte, op.size)
	for i := range b {
		b[i] = byte(i*7 + len(op.name))
	}
	return b
}

// onlyReader hides a reader's WriterTo.
type onlyReader struct{ io.Reader }

// build writes ops with the Builder and returns the archive and the error
// of the first op that failed, or of Close.
func build(ops []buildOp) ([]byte, error) {
	var buf bytes.Buffer
	b := NewBuilder(&buf)
	for _, op := range ops {
		var err error
		switch {
		case op.dir && op.member:
			err = b.Member([]byte(op.name), true, 0, nil)
		case op.dir:
			err = b.Dir(op.name)
		case op.member:
			var r io.Reader = bytes.NewReader(op.content())
			if op.copy {
				r = onlyReader{r}
			}
			err = b.Member([]byte(op.name), false, int64(op.size), r)
		default:
			err = b.File(op.name, op.content())
		}
		if err != nil {
			return buf.Bytes(), err
		}
	}
	err := b.Close()
	return buf.Bytes(), err
}

// oracleBuild writes ops with oracleBuilder.
func oracleBuild(ops []buildOp) ([]byte, error) {
	var buf bytes.Buffer
	b := &oracleBuilder{tw: tar.NewWriter(&buf)}
	for _, op := range ops {
		var err error
		if op.dir {
			err = b.Dir(op.name)
		} else {
			err = b.File(op.name, op.content())
		}
		if err != nil {
			return buf.Bytes(), err
		}
	}
	err := b.Close()
	return buf.Bytes(), err
}

// checkBuild holds the Builder to archive/tar on one op sequence: the same
// bytes, and a refusal exactly where archive/tar refuses, after the same
// bytes.
func checkBuild(t *testing.T, ops []buildOp) (refused bool) {
	t.Helper()
	want, wantErr := oracleBuild(ops)
	got, gotErr := build(ops)
	switch {
	case wantErr == nil && gotErr != nil:
		t.Fatalf("%s: archive/tar writes it, Builder fails: %v", describe(ops), gotErr)
	case wantErr != nil && gotErr == nil:
		t.Fatalf("%s: archive/tar refuses it (%v), Builder writes it", describe(ops), wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs at byte %d of %d/%d (Builder/archive/tar)",
			describe(ops), mismatch(got, want), len(got), len(want))
	}
	return gotErr != nil
}

func describe(ops []buildOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		if len(op.name) > 300 {
			op.name = fmt.Sprintf("%.300q… (%d bytes)", op.name, len(op.name))
		}
		parts[i] = fmt.Sprintf("%+v", op)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mismatch(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// buildSizes are the file sizes the random and fuzzed builds draw from:
// empty, around a block boundary, and a few blocks.
var buildSizes = [8]int{0, 1, 99, 511, 512, 513, 1024, 4097}

// randomName draws an entry name of one of the classes that decide a
// header's format: short; exactly at the 100-byte name field; long with a
// prefix/name split at the USTAR limits or past them; over 256 bytes;
// non-ASCII; with trailing or doubled slashes, dot segments, or, rarely,
// a NUL.
func randomName(rng *rand.Rand) string {
	letters := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdefghij._-"[rng.Intn(13)]
		}
		return string(b)
	}
	var name string
	switch rng.Intn(6) {
	case 0: // a prefix and a name at or around the USTAR limits
		p := []int{1, 2, 60, 154, 155, 156, 157}[rng.Intn(7)]
		n := []int{1, 2, 50, 99, 100, 101}[rng.Intn(6)]
		name = letters(p) + "/" + letters(n)
	case 1: // around the name field's 100 bytes
		name = letters(95 + rng.Intn(10))
		if i := rng.Intn(len(name)); rng.Intn(2) == 0 {
			name = name[:i] + "/" + name[i+1:]
		}
	case 2: // long, many slashes or none
		name = letters(101 + rng.Intn(400))
		for k := rng.Intn(6); k > 0; k-- {
			i := rng.Intn(len(name))
			name = name[:i] + "/" + name[i+1:]
		}
	default:
		segments := []string{"usr", "bin", "a", ".", "..", "", "caf\xc3\xa9", "\xff", "with space",
			letters(40), letters(99), letters(100), letters(120)}
		parts := make([]string, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = segments[rng.Intn(len(segments))]
		}
		name = strings.Join(parts, "/")
	}
	switch rng.Intn(12) {
	case 0:
		name += "/"
	case 1:
		name += "//"
	case 2:
		name = "/" + name
	case 3:
		if rng.Intn(4) == 0 {
			i := rng.Intn(len(name) + 1)
			name = name[:i] + "\x00" + name[i:]
		}
	}
	return name
}

func randomOps(rng *rand.Rand) []buildOp {
	ops := make([]buildOp, 1+rng.Intn(6))
	for i := range ops {
		ops[i] = buildOp{
			dir:    rng.Intn(3) == 0,
			member: rng.Intn(2) == 0,
			copy:   rng.Intn(2) == 0,
			name:   randomName(rng),
			size:   buildSizes[rng.Intn(len(buildSizes))],
		}
		if rng.Intn(4) == 0 {
			ops[i].size = rng.Intn(3000)
		}
		if !ops[i].dir && rng.Intn(4) > 0 {
			// Mostly keep the refusal of a file named like a directory
			// from ending the sequence.
			ops[i].name = strings.TrimRight(ops[i].name, "/")
		}
	}
	return ops
}

// TestBuildMatchesArchiveTar runs the differential check over 3,000 random
// sequences of directories and files, and asserts they reach every format
// archive/tar chooses and every refusal.
func TestBuildMatchesArchiveTar(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var refused, split, pax int
	for i := 0; i < 3000; i++ {
		ops := randomOps(rng)
		if checkBuild(t, ops) {
			refused++
			continue
		}
		out, _ := build(ops)
		for off := 0; off+blockSize <= len(out); off += blockSize {
			switch blk := out[off : off+blockSize]; {
			case !checksumOK(blk) || string(blk[257:263]) != "ustar\x00":
			case blk[156] == 'x':
				pax++
			case blk[345] != 0:
				split++
			}
		}
	}
	t.Logf("3000 sequences: %d refused; %d split USTAR names, %d PAX headers", refused, split, pax)
	if refused < 100 || split < 100 || pax < 100 {
		t.Fatal("the generator no longer reaches every header form")
	}
}

// TestBuildLargeSizes compares the headers of sizes at the octal field's
// 8 GiB limit and beyond, and negative ones: the archives are cut after
// their first blocks, so only the headers and the start of the data are
// written.
func TestBuildLargeSizes(t *testing.T) {
	names := []string{"f", strings.Repeat("p", 120) + "/f", strings.Repeat("u", 120), "caf\xc3\xa9"}
	sizes := []int64{octalSizeLimit - 1, octalSizeLimit, 1 << 40, math.MaxInt64, -1}
	for _, name := range names {
		for _, size := range sizes {
			want := &cappedWriter{left: 4 << 10}
			tw := tar.NewWriter(want)
			wantErr := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: name, Mode: 0o644, Size: size, ModTime: oracleModTime})
			if wantErr == nil {
				tw.Write(make([]byte, 8<<10))
			}
			got := &cappedWriter{left: 4 << 10}
			gotErr := NewBuilder(got).Member([]byte(name), false, size, zeros{})
			if (wantErr == nil) != (gotErr == nil || errors.Is(gotErr, errCapped)) {
				t.Fatalf("%q, size %d: archive/tar %v, Builder %v", name, size, wantErr, gotErr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%q, size %d: headers differ at byte %d", name, size, mismatch(got.Bytes(), want.Bytes()))
			}
		}
	}
}

// TestBuildPAXLimit: a name whose PAX record passes 1 MiB is refused by
// both writers; one just under is written by both, identically.
func TestBuildPAXLimit(t *testing.T) {
	// The record is "<7 digits> path=<name>\n": 14 bytes besides the name.
	for n, refuse := range map[int]bool{maxSpecialSize - 14: false, maxSpecialSize - 13: true, maxSpecialSize: true} {
		if refused := checkBuild(t, []buildOp{{name: strings.Repeat("n", n), size: 3}}); refused != refuse {
			t.Fatalf("%d-byte name: refused %v, want %v", n, refused, refuse)
		}
	}
}

var errCapped = errors.New("capped")

// cappedWriter keeps the first left bytes written to it and fails after.
type cappedWriter struct {
	bytes.Buffer
	left int
}

func (w *cappedWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		w.Buffer.Write(p[:w.left])
		n := w.left
		w.left = 0
		return n, errCapped
	}
	w.left -= len(p)
	return w.Buffer.Write(p)
}

// zeros reads an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestMemberDataLength: a reader shorter than the size fails with
// io.ErrUnexpectedEOF, a longer one before a byte past the size is written.
func TestMemberDataLength(t *testing.T) {
	for _, tc := range []struct {
		data string
		err  error
	}{{"abc", io.ErrUnexpectedEOF}, {"abcdefg", errLongBody}} {
		for _, r := range []io.Reader{strings.NewReader(tc.data), onlyReader{strings.NewReader(tc.data)}} {
			var buf bytes.Buffer
			err := NewBuilder(&buf).Member([]byte("f"), false, 5, r)
			if !errors.Is(err, tc.err) {
				t.Fatalf("%q as 5 bytes through %T: %v, want %v", tc.data, r, err, tc.err)
			}
			if buf.Len() > blockSize+5 {
				t.Fatalf("%q as 5 bytes: %d bytes written", tc.data, buf.Len())
			}
		}
	}
}

// TestBuildAllocs guards the per-entry cost: a reused Builder writes
// directories and files — File, and Member from either kind of reader —
// into a gzip stream without allocating, USTAR-split names included.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	b := NewGzipBuilder(io.Discard)
	content := bytes.Repeat([]byte("content "), 100)
	long := "usr/share/doc/" + strings.Repeat("p", 90) + "/file"
	name := []byte(long)
	r := bytes.NewReader(nil)
	var pull io.Reader = onlyReader{r}
	allocs := testing.AllocsPerRun(100, func() {
		b.Dir("usr/share/doc")
		b.File(long, content)
		r.Reset(content)
		b.Member(name, false, int64(len(content)), r)
		r.Reset(content)
		b.Member(name, false, int64(len(content)), pull)
		b.Member(name[:13], true, 0, nil)
	})
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per five entries, want 0", allocs)
	}
}

// FuzzBuild is the differential check of the Builder against archive/tar
// (checkBuild) over op sequences decoded from the input (decodeOps). The
// seed corpus in testdata/fuzz/FuzzBuild is buildSeeds, written by
// TestBuildSeeds where a seed file is missing.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuild(t, decodeOps(data))
	})
}

// decodeOps reads at most 16 ops from a fuzz input. Each is a flag byte —
// bit 0 directory, bit 1 through Member, bits 2–4 the size (buildSizes),
// bits 5–7 the name length's high bits — then the name length's low byte
// and the name, cut short where the input ends.
func decodeOps(data []byte) []buildOp {
	var ops []buildOp
	for len(data) >= 2 && len(ops) < 16 {
		flags := data[0]
		n := int(flags>>5)<<8 | int(data[1])
		data = data[2:]
		n = min(n, len(data))
		ops = append(ops, buildOp{
			dir:    flags&1 != 0,
			member: flags&2 != 0,
			copy:   len(ops)%2 == 1,
			size:   buildSizes[flags>>2&7],
			name:   string(data[:n]),
		})
		data = data[n:]
	}
	return ops
}

// encodeOps is decodeOps' inverse for the seeds.
func encodeOps(ops []buildOp) []byte {
	var data []byte
	for _, op := range ops {
		size := -1
		for i, s := range buildSizes {
			if s == op.size {
				size = i
			}
		}
		if size < 0 || len(op.name) >= 8<<8 {
			panic(fmt.Sprintf("seed op %+v cannot be encoded", op))
		}
		flags := byte(size<<2) | byte(len(op.name)>>8<<5)
		if op.dir {
			flags |= 1
		}
		if op.member {
			flags |= 2
		}
		data = append(data, flags, byte(len(op.name)))
		data = append(data, op.name...)
	}
	return data
}

// buildSeed is one op sequence of FuzzBuild's seed corpus and whether the
// Builder must refuse it.
type buildSeed struct {
	name    string
	ops     []buildOp
	refused bool
}

func buildSeeds() []buildSeed {
	p := func(n int) string { return strings.Repeat("p", n) }
	file := func(name string, size int) buildOp { return buildOp{name: name, size: size} }
	return []buildSeed{
		{name: "ustar", ops: []buildOp{{dir: true, name: "usr"}, {dir: true, member: true, name: "usr/bin/"}, file("usr/bin/app", 99)}},
		{name: "block-sizes", ops: []buildOp{file("a", 0), file("b", 511), file("c", 512), file("d", 513),
			{member: true, name: "e", size: 1024}, {member: true, name: "f", size: 4097}}},
		{name: "name-100", ops: []buildOp{file(p(100), 1), {dir: true, name: p(99)}}},
		{name: "ustar-prefix", ops: []buildOp{file("usr/share/doc/"+p(90)+"/copyright", 1), {dir: true, name: p(120) + "/" + p(50)}}},
		{name: "prefix-155-name-100", ops: []buildOp{file(p(155)+"/"+p(100), 1)}},
		{name: "prefix-156", ops: []buildOp{file(p(156)+"/f", 1)}},
		{name: "name-101-after-slash", ops: []buildOp{file("a/"+p(101), 1)}},
		{name: "pax-over-256", ops: []buildOp{{member: true, name: strings.Repeat("segment/", 40) + "f", size: 512}}},
		{name: "pax-non-ascii", ops: []buildOp{file("caf\xc3\xa9/men\xfc", 99), {dir: true, name: "\xff"}}},
		{name: "pax-dir-cut-at-slash", ops: []buildOp{{dir: true, name: p(99) + "/" + p(60) + "\xc3\xa9"}}},
		{name: "dir-slashes", ops: []buildOp{{dir: true, name: "a//"}, {dir: true, name: ""}, {dir: true, name: "/"}}},
		{name: "file-trailing-slash", ops: []buildOp{file("ok", 1), file("etc/", 0)}, refused: true},
		{name: "nul-name", ops: []buildOp{file("ok", 1), {dir: true, name: "a\x00b"}}, refused: true},
	}
}

// TestBuildSeeds holds the Builder to each seed's stated outcome and to
// the oracle, and the committed corpus to buildSeeds. It writes a seed file
// that is missing, so deleting the corpus and running it regenerates it.
func TestBuildSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBuild")
	for _, s := range buildSeeds() {
		t.Run(s.name, func(t *testing.T) {
			data := encodeOps(s.ops)
			ops := decodeOps(data)
			if refused := checkBuild(t, ops); refused != s.refused {
				t.Fatalf("refused = %v, want %v", refused, s.refused)
			}
			file := filepath.Join(dir, s.name)
			corpus := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if _, err := os.Stat(file); errors.Is(err, fs.ErrNotExist) {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(corpus), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if b, err := os.ReadFile(file); err != nil || string(b) != corpus {
				t.Fatalf("seed %s is not buildSeeds' (%v): delete it and run TestBuildSeeds again", file, err)
			}
		})
	}
}

// Err returns the first error encountered by the builder, if any.
func (b *Builder) Err() error { return b.err }
