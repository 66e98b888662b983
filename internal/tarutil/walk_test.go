package tarutil

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// Walk walks a raw tar stream with a walker it allocates per call, the form
// the tests drive the walker in; programs walk through a pooled Layer,
// which carries its own.
func Walk(r io.Reader, fn WalkFunc) error { return new(walker).walk(r, fn) }

// oracleWalk is Walk as it was written over archive/tar, the reference
// FuzzWalk holds Walk to, with Walk's two deliberate differences applied:
// a PAX global header is skipped, and a sparse file — old GNU or PAX —
// ends the walk as refused instead of being read.
func oracleWalk(r io.Reader, fn WalkFunc) (refused bool, err error) {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if hdr.Typeflag == tar.TypeXGlobalHeader {
			continue
		}
		if hdr.Typeflag == tar.TypeGNUSparse || hasSparseRecord(hdr.PAXRecords) {
			return true, nil
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			err = fn(Entry{Name: hdr.Name, IsDir: true, Depth: oracleDepth(hdr.Name, true)}, nil)
		case tar.TypeReg:
			err = fn(Entry{Name: hdr.Name, Size: hdr.Size, Depth: oracleDepth(hdr.Name, false)}, tr)
		default:
			err = fn(Entry{Name: hdr.Name, Depth: oracleDepth(hdr.Name, false)}, nil)
		}
		if err != nil {
			return false, err
		}
	}
}

func hasSparseRecord(records map[string]string) bool {
	for k := range records {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return true
		}
	}
	return false
}

// walked is one entry a walk reported, with all of its content.
type walked struct {
	e       Entry
	content string
}

// record returns a WalkFunc that reads every file to its end and appends
// what it saw to out; a read error aborts the walk.
func record(out *[]walked) WalkFunc {
	return func(e Entry, r io.Reader) error {
		var b []byte
		if r != nil {
			var err error
			if b, err = io.ReadAll(r); err != nil {
				return err
			}
		}
		*out = append(*out, walked{e, string(b)})
		return nil
	}
}

// allocBytes returns the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkWalk holds Walk to the oracle on one input. Where archive/tar reads
// the archive, Walk yields the same entries with the same content; where
// archive/tar fails, or meets a sparse file, Walk fails after the same
// entries — a sparse file with its own error. Walk never allocates more
// than the 1 MiB a special header may hold beyond what the input pays for.
// The input is also read through a Layer (checkLayer).
func checkWalk(t *testing.T, data []byte) {
	t.Helper()
	var want, got []walked
	refused, wantErr := oracleWalk(bytes.NewReader(data), record(&want))
	var gotErr error
	alloc := allocBytes(func() { gotErr = Walk(bytes.NewReader(data), record(&got)) })
	switch {
	case wantErr == nil && !refused && gotErr != nil:
		t.Fatalf("archive/tar reads the archive, Walk fails: %v", gotErr)
	case wantErr != nil && gotErr == nil:
		t.Fatalf("archive/tar fails (%v), Walk reads the archive", wantErr)
	case refused && gotErr == nil:
		t.Fatal("Walk reads a sparse file")
	case refused && !errors.Is(gotErr, errOldSparse) && !errors.Is(gotErr, errPAXSparse):
		t.Fatalf("a sparse file fails with %v, not a sparse refusal", gotErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("entries differ\nWalk:        %+v\narchive/tar: %+v", got, want)
	}
	if bound := uint64(maxSpecialSize + 16*len(data) + 256<<10); alloc > bound {
		t.Fatalf("Walk allocated %d bytes over a %d-byte archive (bound %d)", alloc, len(data), bound)
	}
	checkLayer(t, data, got, gotErr)
}

// checkLayer holds a Layer over data, fed one byte per read, to the
// framing rule and to Walk, which yielded entries and err over the same
// bytes. Data with the gzip magic is Gzip. Other data is Plain exactly
// when Walk gets past its first header block — which a zero block never
// is: readHeader reads on past one and then fails or ends the archive —
// and the Layer walks it as Walk does. Either way the Layer reads every
// byte.
func checkLayer(t *testing.T, data []byte, entries []walked, err error) {
	t.Helper()
	first := walker{}
	first.body.R = bytes.NewReader(data)
	_, _, firstErr := first.readHeader()

	var got []walked
	l := OpenLayer(iotest.OneByteReader(bytes.NewReader(data)))
	defer l.Close()
	framing := l.Framing()
	layerErr := l.Walk(record(&got))
	switch {
	case bytes.HasPrefix(data, []byte(gzipMagic)):
		if framing != Gzip {
			t.Fatalf("gzip magic, framing %d", framing)
		}
	case (framing == Plain) != (firstErr == nil):
		t.Fatalf("framing %d, first header block: %v", framing, firstErr)
	case (layerErr == nil) != (err == nil) || !slices.Equal(got, entries):
		t.Fatalf("Layer walk differs from Walk\nLayer: %+v, %v\nWalk:  %+v, %v", got, layerErr, entries, err)
	}
	if l.WireBytes() != int64(len(data)) {
		t.Fatalf("Layer read %d of %d bytes", l.WireBytes(), len(data))
	}
}

// FuzzWalk is the differential check of Walk against archive/tar
// (checkWalk): same entries and content where archive/tar reads an
// archive, an error after the same entries where it fails, a refusal for a
// sparse file, no panic, and no special header allocated past 1 MiB; and
// of a Layer's framing against Walk's first header block (checkLayer). The
// seed corpus in testdata/fuzz/FuzzWalk is walkSeeds, written by
// TestWalkSeeds where a seed file is missing.
func FuzzWalk(f *testing.F) {
	f.Fuzz(checkWalk)
}

// walkSeed is one archive of FuzzWalk's seed corpus and what Walk must
// make of it: the entry names, then success or an error matching err.
type walkSeed struct {
	name  string
	data  []byte
	names []string
	err   error
}

// Header magics: a V7 header has none.
const (
	magicUSTAR = "ustar\x0000"
	magicGNU   = "ustar  \x00"
)

// rawHeader returns a hand-made header block with an unsigned checksum.
func rawHeader(name string, typ byte, size int64, magic string) []byte {
	b := make([]byte, blockSize)
	copy(b, name)
	copy(b[100:], "0000644\x00")
	copy(b[108:], "0000000\x00")
	copy(b[116:], "0000000\x00")
	copy(b[124:], fmt.Sprintf("%011o\x00", size))
	copy(b[136:], "13204570400\x00")
	b[156] = typ
	copy(b[257:], magic)
	setChecksum(b, false)
	return b
}

// setChecksum stores the block's checksum, a signed or an unsigned sum.
func setChecksum(b []byte, signed bool) {
	copy(b[148:156], "        ")
	var sum int64
	for _, c := range b {
		if signed {
			sum += int64(int8(c))
		} else {
			sum += int64(c)
		}
	}
	copy(b[148:], fmt.Sprintf("%06o\x00 ", sum))
}

// padded returns data padded with NULs to a block boundary.
func padded(data string) []byte {
	b := []byte(data)
	return append(b, make([]byte, -len(b)&(blockSize-1))...)
}

// paxRecord formats one PAX record, its length counting its own digits.
func paxRecord(k, v string) string {
	n := len(k) + len(v) + 3 // space, '=', newline
	n += len(strconv.Itoa(n))
	rec := fmt.Sprintf("%d %s=%s\n", n, k, v)
	if len(rec) != n { // the length gained a digit
		rec = fmt.Sprintf("%d %s=%s\n", len(rec), k, v)
	}
	return rec
}

// archive concatenates blocks and appends the two-zero-block trailer.
func archive(parts ...[]byte) []byte {
	return append(bytes.Join(parts, nil), make([]byte, 2*blockSize)...)
}

// written returns the archive tar.Writer makes of headers, each regular
// file given its content.
func written(t testing.TB, hdrs []*tar.Header, contents map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, h := range hdrs {
		if h.Typeflag == tar.TypeReg {
			h.Size = int64(len(contents[h.Name]))
		}
		if err := tw.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(tw, contents[h.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func walkSeeds(t testing.TB) []walkSeed {
	mtime := time.Unix(1496102400, 0)
	prefixed := "usr/share/doc/" + strings.Repeat("p", 60) + "/" + strings.Repeat("n", 60) + ".txt"
	paxLong := "opt/" + strings.Repeat("very-long-segment/", 16) + "file"
	gnuLong := "srv/" + strings.Repeat("g", 120)
	gnuLink := "lib/" + strings.Repeat("k", 120)

	v7 := archive(rawHeader("v7file", '0', 3, ""), padded("old"))

	base256 := rawHeader("b256", '0', 0, magicUSTAR)
	copy(base256[124:136], []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5})
	setChecksum(base256, false)

	overflow := rawHeader("huge", '0', 0, magicUSTAR)
	copy(overflow[124:136], append([]byte{0x80}, bytes.Repeat([]byte{0xff}, 11)...))
	setChecksum(overflow, false)

	signed := rawHeader("caf\xe9", '0', 2, magicUSTAR)
	setChecksum(signed, true)

	starPrefix := "star/" + strings.Repeat("s", 126) // fills star's 131-byte prefix
	star := rawHeader("file", '0', 4, magicUSTAR)
	copy(star[345:], starPrefix)
	copy(star[476:], fmt.Sprintf("%011o\x00%011o\x00", 1496102400, 1496102400)) // atime, ctime
	copy(star[508:], "tar\x00")
	setChecksum(star, false)

	oldSparse := rawHeader("sparse", 'S', 5, magicGNU)
	copy(oldSparse[386:], fmt.Sprintf("%011o\x00%011o\x00", 5, 5)) // one region: offset 5, length 5
	copy(oldSparse[483:], fmt.Sprintf("%011o\x00", 10))            // real size
	setChecksum(oldSparse, false)

	sparseRecords := paxRecord("GNU.sparse.size", "10") + paxRecord("GNU.sparse.numblocks", "1") +
		paxRecord("GNU.sparse.offset", "5") + paxRecord("GNU.sparse.numbytes", "5")

	file := func(name, content string) []byte {
		return append(rawHeader(name, '0', int64(len(content)), magicUSTAR), padded(content)...)
	}
	ok := file("ok", "fine")
	badSum := slices.Clone(ok)
	badSum[150]++ // one octal digit of the checksum

	badMode := rawHeader("mode", '0', 4, magicUSTAR) // a valid checksum over a field that does not parse
	copy(badMode[100:], "0000xyz\x00")
	setChecksum(badMode, false)

	return []walkSeed{
		{name: "ustar-prefix", data: written(t, []*tar.Header{
			{Typeflag: tar.TypeDir, Name: "usr/", Mode: 0o755, ModTime: mtime, Format: tar.FormatUSTAR},
			{Typeflag: tar.TypeReg, Name: prefixed, Mode: 0o644, ModTime: mtime, Format: tar.FormatUSTAR},
		}, map[string]string{prefixed: "hello"}), names: []string{"usr/", prefixed}},
		{name: "pax-long-path", data: written(t, []*tar.Header{
			{Typeflag: tar.TypeReg, Name: paxLong, Mode: 0o644, ModTime: mtime, Format: tar.FormatPAX},
		}, map[string]string{paxLong: "pax"}), names: []string{paxLong}},
		{name: "gnu-long-name-link", data: written(t, []*tar.Header{
			{Typeflag: tar.TypeReg, Name: gnuLong, Mode: 0o644, ModTime: mtime, Format: tar.FormatGNU},
			{Typeflag: tar.TypeSymlink, Name: gnuLong + ".lnk", Linkname: gnuLink, Mode: 0o777, ModTime: mtime, Format: tar.FormatGNU},
		}, map[string]string{gnuLong: "gnu"}), names: []string{gnuLong, gnuLong + ".lnk"}},
		{name: "v7", data: v7, names: []string{"v7file"}},
		{name: "base256-size", data: archive(base256, padded("12345")), names: []string{"b256"}},
		{name: "star-prefix", data: archive(star, padded("star")), names: []string{starPrefix + "/file"}},
		{name: "signed-checksum", data: archive(signed, padded("ok")), names: []string{"caf\xe9"}},
		{name: "global-header", data: written(t, []*tar.Header{
			{Typeflag: tar.TypeXGlobalHeader, Name: "pax_global_header", PAXRecords: map[string]string{"comment": "4b825dc642cb6eb9a060e54bf8d69288fbee4904"}},
			{Typeflag: tar.TypeReg, Name: "a", Mode: 0o644, ModTime: mtime},
		}, map[string]string{"a": "after the global header"}), names: []string{"a"}},
		{name: "sparse-old-gnu", data: archive(oldSparse, padded("12345")), err: errOldSparse},
		{name: "sparse-pax", data: archive(rawHeader("PaxHeaders.0/sparse", 'x', int64(len(sparseRecords)), magicUSTAR),
			padded(sparseRecords), file("sparse", "12345")), err: errPAXSparse},
		{name: "truncated-body", data: append(rawHeader("short", '0', 100, magicUSTAR), make([]byte, 40)...),
			names: []string{"short"}, err: io.ErrUnexpectedEOF},
		{name: "truncated-block", data: append(slices.Clone(ok), rawHeader("cut", '0', 0, magicUSTAR)[:300]...),
			names: []string{"ok"}, err: io.ErrUnexpectedEOF},
		{name: "bad-checksum", data: archive(badSum), err: errHeader},
		{name: "bad-mode", data: archive(badMode, padded("body")), err: errHeader},
		{name: "overflow-size", data: archive(overflow), err: errHeader},
		{name: "pax-2mib", data: append(rawHeader("PaxHeaders.0/big", 'x', 2<<20, magicUSTAR),
			padded(paxRecord("comment", strings.Repeat("x", 400)))...), err: errSpecialSize},
		{name: "one-zero-block", data: append(slices.Clone(ok), make([]byte, blockSize)...), names: []string{"ok"}},
		{name: "zero-block-then-data", data: archive(ok, make([]byte, blockSize), file("after", "x")),
			names: []string{"ok"}, err: errHeader},
	}
}

// TestWalkSeeds holds Walk to each seed's stated outcome and to the
// oracle, and the committed corpus to walkSeeds. It writes a seed file
// that is missing, so deleting the corpus and running it regenerates it.
func TestWalkSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWalk")
	for _, s := range walkSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			var names []string
			err := Walk(bytes.NewReader(s.data), func(e Entry, r io.Reader) error {
				names = append(names, e.Name)
				if r == nil {
					return nil
				}
				_, err := io.Copy(io.Discard, r) // a cut body reads as io.ErrUnexpectedEOF
				return err
			})
			switch {
			case s.err == nil && err != nil:
				t.Fatalf("Walk failed: %v", err)
			case s.err != nil && err == nil:
				t.Fatal("Walk succeeded")
			case s.err != nil && !errors.Is(err, s.err):
				t.Fatalf("error %v, want %v", err, s.err)
			}
			if !slices.Equal(names, s.names) {
				t.Fatalf("entries %q, want %q", names, s.names)
			}
			checkWalk(t, s.data)

			file := filepath.Join(dir, s.name)
			corpus := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\n"
			if _, err := os.Stat(file); errors.Is(err, fs.ErrNotExist) {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(corpus), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if b, err := os.ReadFile(file); err != nil || string(b) != corpus {
				t.Fatalf("seed %s is not walkSeeds' (%v): delete it and run TestWalkSeeds again", file, err)
			}
		})
	}
}

// TestWalkMatchesArchiveTar runs the differential check over random
// archives tar.Writer makes — USTAR, PAX and GNU; long names and link
// names; directories, links, devices, fifos; PAX records and global
// headers — and over corrupted and truncated copies of each.
func TestWalkMatchesArchiveTar(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 300; i++ {
		data := randomArchive(rng)
		checkWalk(t, data)
		checkWalk(t, data[:rng.Intn(len(data)+1)])
		checkWalk(t, corrupt(rng, data, false))
		for m := 0; m < 6; m++ {
			checkWalk(t, corrupt(rng, data, true))
		}
		checkWalk(t, randomMeta(rng))
	}
}

// randomMeta returns a hand-made archive of PAX, global and GNU long-name
// headers — mostly records archive/tar accepts, some it rejects — each
// followed by an entry they apply to.
func randomMeta(rng *rand.Rand) []byte {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	valid := map[string][]string{
		"path":                {"a/b", "dir/", "x", ""},
		"size":                {"0", "3", "+12", ""},
		"mtime":               {"7", "1.5", "-1.25", ""},
		"uid":                 {"0", "+3", "-1"},
		"gid":                 {"0", "42"},
		"uname":               {"root", ""},
		"SCHILY.xattr.user.a": {"v"},
		"comment":             {"c", "a=b"},
		"GNU.sparse.major":    {"9"},
	}
	keys := []string{"GNU.sparse.offset", "GNU.sparse.numbytes", "", "k\x00"}
	for k := range valid {
		keys = append(keys, k, k, k)
	}
	slices.Sort(keys)
	invalid := []string{"-1", "1.x", ".5", "abc", "9223372036854775808", "a\x00b", "\x00", "1,2"}
	var parts [][]byte
	for i := 1 + rng.Intn(3); i > 0; i-- {
		for m := 1 + rng.Intn(2); m > 0; m-- {
			typ := "xxxgLK"[rng.Intn(6)]
			var data string
			if typ == 'L' || typ == 'K' {
				data = pick([]string{"", "long/", "a\x00b"}) + "name"
			} else {
				for r := rng.Intn(3); r >= 0; r-- {
					k, v := pick(keys), pick(invalid)
					if good := valid[k]; good != nil && rng.Intn(4) > 0 {
						v = pick(good)
					}
					rec := paxRecord(k, v)
					if rng.Intn(16) == 0 {
						rec = rec[:len(rec)-1] + " " // no newline where the length says
					}
					data += rec
				}
			}
			parts = append(parts, rawHeader("meta", typ, int64(len(data)), magicUSTAR), padded(data))
		}
		content := strings.Repeat("c", rng.Intn(8))
		parts = append(parts, rawHeader(pick([]string{"f", "d/", "a/b"}), "0\x005127"[rng.Intn(6)],
			int64(len(content)), magicUSTAR), padded(content))
	}
	return archive(parts...)
}

// corrupt returns a copy of data with a few bytes changed. With inHeaders
// set, the changes go to the fields of header blocks, and each header gets
// a valid checksum again, so that they reach the checks behind it.
func corrupt(rng *rand.Rand, data []byte, inHeaders bool) []byte {
	out := slices.Clone(data)
	if len(out) == 0 {
		return out
	}
	if !inHeaders {
		for k := rng.Intn(4); k >= 0; k-- {
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		}
		return out
	}
	var headers []int
	for off := 0; off+blockSize <= len(out); off += blockSize {
		if checksumOK(out[off : off+blockSize]) {
			headers = append(headers, off)
		}
	}
	if len(headers) == 0 {
		return out
	}
	// Name ends, numeric fields, type flag, magic, device numbers, the
	// prefix (GNU atime and ctime) and star's tail.
	fields := [][2]int{{90, 148}, {156, 157}, {156, 157}, {257, 265}, {329, 369}, {476, 512}}
	values := []byte{0, ' ', '0', '7', '8', '/', '.', 'x', 'g', 'L', 'K', 'S', '5', '\n', 0x80, 0xc0, 0xff}
	for k := rng.Intn(3); k >= 0; k-- {
		hdr := out[headers[rng.Intn(len(headers))]:][:blockSize]
		at := rng.Intn(blockSize)
		if f := fields[rng.Intn(len(fields))]; rng.Intn(4) > 0 {
			at = f[0] + rng.Intn(f[1]-f[0])
		}
		hdr[at] = values[rng.Intn(len(values))]
		setChecksum(hdr, false)
	}
	return out
}

func randomArchive(rng *rand.Rand) []byte {
	segments := []string{"usr", "bin", "a", ".", "..", "", "caf\xc3\xa9", "with space", strings.Repeat("s", 70)}
	name := func() string {
		parts := make([]string, 1+rng.Intn(5))
		for i := range parts {
			parts[i] = segments[rng.Intn(len(segments))]
		}
		n := strings.Join(parts, "/")
		if n == "" || rng.Intn(8) == 0 {
			n = "./" + n + "f"
		}
		return n
	}
	formats := []tar.Format{tar.FormatUnknown, tar.FormatUSTAR, tar.FormatPAX, tar.FormatGNU}
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i := rng.Intn(8); i > 0; i-- {
		h := &tar.Header{Name: name(), Mode: 0o644, ModTime: time.Unix(rng.Int63n(1<<36), 0), Format: formats[rng.Intn(len(formats))]}
		var content []byte
		switch rng.Intn(9) {
		case 0:
			h.Typeflag, h.Name = tar.TypeDir, h.Name+"/"
		case 1:
			h.Typeflag, h.Linkname = tar.TypeSymlink, name()
		case 2:
			h.Typeflag, h.Linkname = tar.TypeLink, name()
		case 3:
			h.Typeflag = tar.TypeFifo
		case 4:
			h.Typeflag, h.Devmajor, h.Devminor = tar.TypeChar, 1, 3
		case 5:
			h = &tar.Header{Typeflag: tar.TypeXGlobalHeader, Name: "pax_global_header", PAXRecords: map[string]string{"comment": name()}}
		default:
			h.Typeflag = tar.TypeReg
			content = make([]byte, rng.Intn(1500))
			rng.Read(content)
			h.Size = int64(len(content))
		}
		if h.Typeflag != tar.TypeXGlobalHeader && rng.Intn(4) == 0 {
			h.PAXRecords = map[string]string{"SCHILY.xattr.user.k": name(), "comment": "c"}
		}
		if h.Format == tar.FormatGNU && rng.Intn(2) == 0 {
			h.AccessTime, h.ChangeTime = h.ModTime, h.ModTime
		}
		if tw.WriteHeader(h) != nil {
			continue // a header the chosen format cannot hold: not written
		}
		tw.Write(content)
	}
	tw.Close()
	return buf.Bytes()
}

// TestWalkRefusesBeforeAllocating: the header forms an attacker controls
// the size of fail from the header block, before their data is allocated
// or read.
func TestWalkRefusesBeforeAllocating(t *testing.T) {
	sized := func(typ byte, field []byte) []byte {
		hdr := rawHeader("f", typ, 0, magicUSTAR)
		copy(hdr[124:136], field)
		setChecksum(hdr, false)
		return archive(hdr, make([]byte, 64<<10))
	}
	overflow := append([]byte{0x80}, bytes.Repeat([]byte{0xff}, 11)...)
	negative := bytes.Repeat([]byte{0xff}, 12) // base-256 -1
	badSum := rawHeader("f", '0', 0, magicUSTAR)
	badSum[150]++

	type refusal struct {
		name string
		data []byte
		err  error
	}
	cases := []refusal{{"bad checksum", archive(badSum), errHeader}}
	for _, typ := range []byte{'0', 'x', 'g', 'L', 'K'} {
		cases = append(cases,
			refusal{fmt.Sprintf("%q, overflowing size", typ), sized(typ, overflow), errHeader},
			refusal{fmt.Sprintf("%q, negative size", typ), sized(typ, negative), errHeader})
		if typ != '0' {
			over := []byte(fmt.Sprintf("%011o\x00", maxSpecialSize+1))
			cases = append(cases, refusal{fmt.Sprintf("%q, data over 1 MiB", typ), sized(typ, over), errSpecialSize})
		}
	}
	for _, c := range cases {
		var err error
		alloc := allocBytes(func() { err = Walk(bytes.NewReader(c.data), func(Entry, io.Reader) error { return nil }) })
		if !errors.Is(err, c.err) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.err)
		}
		if alloc > 16<<10 {
			t.Errorf("%s: Walk allocated %d bytes before failing", c.name, alloc)
		}
	}

	// At the bound itself a special header is read, as archive/tar reads it.
	rec := paxRecord("comment", strings.Repeat("c", maxSpecialSize-len("1048576 comment=\n")))
	if len(rec) != maxSpecialSize {
		t.Fatalf("record is %d bytes", len(rec))
	}
	data := archive(rawHeader("PaxHeaders.0/f", 'x', maxSpecialSize, magicUSTAR), padded(rec),
		rawHeader("f", '0', 0, magicUSTAR))
	checkWalk(t, data)
}

// TestWalkAllocs guards the per-entry cost: over a plain in-memory
// archive, a walk allocates one name per entry, USTAR-prefixed names
// included, plus a constant.
func TestWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const entries = 200
	var buf bytes.Buffer
	b := NewBuilder(&buf)
	long := "usr/share/doc/" + strings.Repeat("p", 90)
	for i := 0; i < entries; i++ {
		switch {
		case i%10 == 0:
			b.Dir(fmt.Sprintf("dir%03d", i))
		case i%5 == 0:
			b.File(fmt.Sprintf("%s/file%03d", long, i), bytes.Repeat([]byte{'x'}, i))
		default:
			b.File(fmt.Sprintf("dir/file%03d", i), bytes.Repeat([]byte{'y'}, 3*i))
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	n := 0
	fn := func(e Entry, content io.Reader) error {
		n++
		if content != nil {
			_, err := io.Copy(io.Discard, content)
			return err
		}
		return nil
	}
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		r.Reset(buf.Bytes())
		if err := Walk(r, fn); err != nil || n != entries {
			t.Fatalf("walked %d entries: %v", n, err)
		}
	})
	t.Logf("%d entries: %.0f allocations per walk", entries, allocs)
	if allocs > entries+4 {
		t.Fatalf("%.0f allocations per walk of %d entries, want at most %d", allocs, entries, entries+4)
	}
}

// TestLayerAllocs guards the pooled read path: opening, walking and
// closing a gzip layer allocates one name per entry plus a constant — the
// Layer, its read buffer and its inflater come back from the free list. The
// constant includes compress/flate's own: it makes fresh link tables for
// every Huffman block with codes over 9 bits, 8 allocations for this layer.
func TestLayerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const entries = 200
	var buf bytes.Buffer
	b := NewGzipBuilder(&buf)
	for i := 0; i < entries; i++ {
		b.File(fmt.Sprintf("dir/file%03d", i), bytes.Repeat([]byte{'y'}, 3*i))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	n := 0
	fn := func(e Entry, content io.Reader) error {
		n++
		_, err := io.Copy(io.Discard, content)
		return err
	}
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		r.Reset(buf.Bytes())
		l := OpenLayer(r)
		err := l.Walk(fn)
		l.Close()
		if err != nil || n != entries {
			t.Fatalf("walked %d entries: %v", n, err)
		}
	})
	t.Logf("%d entries: %.0f allocations per layer", entries, allocs)
	if allocs > entries+16 {
		t.Fatalf("%.0f allocations per layer of %d entries, want at most %d", allocs, entries, entries+16)
	}
}

// TestLayerWalkAllocatesOnlyNames: a pooled Layer carries its walker, so
// opening, walking and closing a gzip layer of one directory allocates the
// directory's name and nothing else.
func TestLayerWalkAllocatesOnlyNames(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var buf bytes.Buffer
	b := NewGzipBuilder(&buf)
	b.Dir("etc")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	n := 0
	fn := func(e Entry, content io.Reader) error {
		n++
		return nil
	}
	allocs := testing.AllocsPerRun(50, func() {
		n = 0
		r.Reset(buf.Bytes())
		l := OpenLayer(r)
		err := l.Walk(fn)
		l.Close()
		if err != nil || n != 1 {
			t.Fatalf("walked %d entries: %v", n, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("%.0f allocations per one-directory layer, want 1 (its name)", allocs)
	}
}
