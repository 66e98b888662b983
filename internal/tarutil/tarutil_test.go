package tarutil

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func buildSample(t *testing.T, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := NewBuilder(&buf)
	if gz {
		b.Reset(&buf, Gzip)
	}
	if err := b.Dir("usr"); err != nil {
		t.Fatal(err)
	}
	if err := b.Dir("usr/bin"); err != nil {
		t.Fatal(err)
	}
	if err := b.File("usr/bin/app", []byte("binary-content")); err != nil {
		t.Fatal(err)
	}
	if err := b.File("README", []byte("docs")); err != nil {
		t.Fatal(err)
	}
	if err := b.File("usr/stream.dat", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collect walks a layer blob through a Layer and returns its entries and
// file contents, after checking that the walk consumed the whole blob.
func collect(t *testing.T, data []byte) ([]Entry, map[string]string) {
	t.Helper()
	var entries []Entry
	contents := make(map[string]string)
	l := OpenLayer(bytes.NewReader(data))
	defer l.Close()
	err := l.Walk(func(e Entry, r io.Reader) error {
		entries = append(entries, e)
		if r != nil {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			contents[e.Name] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.WireBytes() != int64(len(data)) {
		t.Fatalf("walk read %d of %d wire bytes", l.WireBytes(), len(data))
	}
	return entries, contents
}

func TestRoundTripPlain(t *testing.T) {
	data := buildSample(t, false)
	entries, contents := collect(t, data)
	if len(entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(entries))
	}
	if contents["usr/bin/app"] != "binary-content" {
		t.Errorf("app content = %q", contents["usr/bin/app"])
	}
	if contents["README"] != "docs" {
		t.Errorf("README content = %q", contents["README"])
	}
	if contents["usr/stream.dat"] != "12345" {
		t.Errorf("stream content = %q", contents["usr/stream.dat"])
	}
}

func TestRoundTripGzip(t *testing.T) {
	data := buildSample(t, true)
	entries, _ := collect(t, data)
	if len(entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(entries))
	}
	// Gzip must actually compress the trailing tar padding.
	plain := buildSample(t, false)
	if len(data) >= len(plain) {
		t.Errorf("gzip output %d not smaller than plain %d", len(data), len(plain))
	}
}

func TestDepths(t *testing.T) {
	data := buildSample(t, false)
	entries, _ := collect(t, data)
	want := map[string]int{
		"usr/":           1,
		"usr/bin/":       2,
		"usr/bin/app":    2,
		"README":         0,
		"usr/stream.dat": 1,
	}
	for _, e := range entries {
		if w, ok := want[e.Name]; ok && e.Depth != w {
			t.Errorf("depth(%s) = %d, want %d", e.Name, e.Depth, w)
		}
	}
}

func TestDepthOf(t *testing.T) {
	cases := []struct {
		name  string
		isDir bool
		want  int
	}{
		{"a", false, 0},
		{"a/b", false, 1},
		{"a/b/c/d", false, 3},
		{"a/", true, 1},
		{"a/b/", true, 2},
		{"./a/b", false, 1},
		{"/abs/path", false, 1},
		{"", true, 0},
		{".", true, 0},
	}
	for _, c := range cases {
		if got := depthOf(c.name, c.isDir); got != c.want {
			t.Errorf("depthOf(%q, %v) = %d, want %d", c.name, c.isDir, got, c.want)
		}
	}
}

// oracleDepth is depthOf as it was written over path.Clean, which builds
// "/"+name per entry; the allocation-free depthOf is held to it.
func oracleDepth(name string, isDir bool) int {
	clean := strings.Trim(path.Clean("/"+name), "/")
	if clean == "" || clean == "." {
		return 0
	}
	segments := strings.Count(clean, "/") + 1
	if isDir {
		return segments
	}
	return segments - 1
}

// Property: depthOf agrees with oracleDepth on names made of ".", "..",
// empty segments ("//") and ordinary ones, with or without leading and
// trailing slashes.
func TestQuickDepthOf(t *testing.T) {
	segments := []string{"", ".", "..", "...", "a", "bin", ".hidden", "x.y"}
	f := func(picks []uint8, lead, trail, isDir bool) bool {
		parts := make([]string, len(picks))
		for i, p := range picks {
			parts[i] = segments[int(p)%len(segments)]
		}
		name := strings.Join(parts, "/")
		if lead {
			name = "/" + name
		}
		if trail {
			name += "/"
		}
		if got, want := depthOf(name, isDir), oracleDepth(name, isDir); got != want {
			t.Logf("depthOf(%q, %v) = %d, want %d", name, isDir, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkSkipsUnreadContent(t *testing.T) {
	var buf bytes.Buffer
	b := NewBuilder(&buf)
	b.File("big", bytes.Repeat([]byte{1}, 10_000))
	b.File("after", []byte("next"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var names []string
	err := Walk(bytes.NewReader(buf.Bytes()), func(e Entry, r io.Reader) error {
		names = append(names, e.Name) // do not read content
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[1] != "after" {
		t.Fatalf("walk with unread content saw %d entries: %v", len(names), names)
	}
}

func TestWalkCallbackErrorAborts(t *testing.T) {
	data := buildSample(t, false)
	sentinel := errors.New("stop")
	count := 0
	err := Walk(bytes.NewReader(data), func(Entry, io.Reader) error {
		count++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if count != 1 {
		t.Fatalf("callback ran %d times after error", count)
	}
}

func TestWalkCorruptTar(t *testing.T) {
	err := Walk(bytes.NewReader([]byte("this is not a tar archive at all, but it is long enough to look like one")), func(Entry, io.Reader) error { return nil })
	if err == nil {
		t.Fatal("corrupt tar walked without error")
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(failWriter{})
	_ = b.Dir("x")
	if b.Err() == nil {
		t.Fatal("expected sticky error after failed write")
	}
	if err := b.File("y", []byte("z")); err == nil {
		t.Fatal("File after error should fail")
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close after error should fail")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// Property: any set of generated files round-trips through build+walk with
// identical names, sizes and content digests.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nFiles%16) + 1
		var buf bytes.Buffer
		b := NewGzipBuilder(&buf)
		want := make(map[string][]byte)
		for i := 0; i < n; i++ {
			name := "dir/file" + string(rune('a'+i))
			content := make([]byte, rng.Intn(5000))
			rng.Read(content)
			want[name] = content
			if b.File(name, content) != nil {
				return false
			}
		}
		if b.Close() != nil {
			return false
		}
		got := make(map[string][]byte)
		l := OpenLayer(bytes.NewReader(buf.Bytes()))
		defer l.Close()
		err := l.Walk(func(e Entry, r io.Reader) error {
			if r == nil {
				return nil
			}
			data, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			got[e.Name] = data
			return nil
		})
		if err != nil || len(got) != len(want) {
			return false
		}
		for name, content := range want {
			if !bytes.Equal(got[name], content) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildLayer writes a 50-file gzip layer through a reused
// Builder.
func BenchmarkBuildLayer(b *testing.B) {
	content := bytes.Repeat([]byte("xyz"), 1000)
	var buf bytes.Buffer
	bl := NewGzipBuilder(&buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		bl.Reset(&buf, Gzip)
		for j := 0; j < 50; j++ {
			bl.File("f", content)
		}
		bl.Close()
	}
}

// BenchmarkWalkLayer walks a 50-file gzip layer through a pooled Layer,
// reading every file.
func BenchmarkWalkLayer(b *testing.B) {
	var buf bytes.Buffer
	bl := NewGzipBuilder(&buf)
	content := bytes.Repeat([]byte("xyz"), 1000)
	for j := 0; j < 50; j++ {
		bl.File("f", content)
	}
	bl.Close()
	data := buf.Bytes()
	r := bytes.NewReader(nil)
	fn := func(e Entry, r io.Reader) error {
		if r != nil {
			io.Copy(io.Discard, r)
		}
		return nil
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		l := OpenLayer(r)
		l.Walk(fn)
		l.Close()
	}
}

// TestWalkAutoSniffsBothFormats walks the same logical layer in both wire
// formats through a Layer, which tells them apart, and requires identical
// results. The walks repeat to exercise pooled Layer reuse.
func TestWalkAutoSniffsBothFormats(t *testing.T) {
	gz := buildSample(t, true)
	plain := buildSample(t, false)
	for _, c := range []struct {
		data []byte
		want Framing
	}{{gz, Gzip}, {plain, Plain}, {[]byte(`{"architecture":"amd64"}`), NotTar}} {
		l := OpenLayer(bytes.NewReader(c.data))
		if got := l.Framing(); got != c.want {
			t.Fatalf("framing %d, want %d", got, c.want)
		}
		l.Close()
	}
	for round := 0; round < 3; round++ {
		ge, gc := collect(t, gz)
		pe, pc := collect(t, plain)
		if len(ge) != 5 || len(pe) != 5 {
			t.Fatalf("round %d: entries gzip=%d plain=%d, want 5/5", round, len(ge), len(pe))
		}
		for i := range ge {
			if ge[i] != pe[i] {
				t.Fatalf("round %d: entry %d diverged: %+v vs %+v", round, i, ge[i], pe[i])
			}
		}
		for name, want := range gc {
			if pc[name] != want {
				t.Fatalf("round %d: content %q diverged", round, name)
			}
		}
	}
}

// TestWalkAutoConcurrent exercises the Layer pool from many goroutines
// (run under -race in CI).
func TestWalkAutoConcurrent(t *testing.T) {
	gz := buildSample(t, true)
	plain := buildSample(t, false)
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		data := gz
		if w%2 == 1 {
			data = plain
		}
		go func(data []byte) {
			n := 0
			l := OpenLayer(bytes.NewReader(data))
			defer l.Close()
			err := l.Walk(func(e Entry, r io.Reader) error {
				n++
				return nil
			})
			if err == nil && n != 5 {
				err = errors.New("wrong entry count")
			}
			done <- err
		}(data)
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWalkAutoEmptyInput(t *testing.T) {
	// A zero-byte stream is neither gzip nor a tar header: it is NotTar,
	// and walks as an empty plain tar (no entries, no error).
	l := OpenLayer(bytes.NewReader(nil))
	defer l.Close()
	n := 0
	if err := l.Walk(func(Entry, io.Reader) error { n++; return nil }); err != nil {
		t.Fatalf("Walk(empty) = %v", err)
	}
	if l.Framing() != NotTar || n != 0 {
		t.Fatalf("empty input: framing %d, %d entries", l.Framing(), n)
	}
}

func TestWalkAutoCorruptGzip(t *testing.T) {
	// Correct magic, garbage after: must surface a gzip error, not walk,
	// and still consume the blob.
	data := []byte{0x1f, 0x8b, 0xff, 0xff, 0xff}
	l := OpenLayer(bytes.NewReader(data))
	defer l.Close()
	if err := l.Walk(func(Entry, io.Reader) error { return nil }); err == nil {
		t.Fatal("corrupt gzip stream accepted")
	}
	if l.WireBytes() != int64(len(data)) {
		t.Fatalf("failed walk read %d of %d wire bytes", l.WireBytes(), len(data))
	}
}

// TestLayerReadsNotTar: a blob that is not a tar reads through its Layer
// from the first byte, and a stream that fails while the Layer sniffs
// fails both its Read and its Walk.
func TestLayerReadsNotTar(t *testing.T) {
	for _, data := range [][]byte{nil, []byte(`{"architecture":"amd64"}`), bytes.Repeat([]byte("x"), 100_000)} {
		l := OpenLayer(bytes.NewReader(data))
		got, err := io.ReadAll(l)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d-byte blob read back as %d bytes: %v", len(data), len(got), err)
		}
		if l.Framing() != NotTar || l.WireBytes() != int64(len(data)) {
			t.Fatalf("%d-byte blob: framing %d, %d wire bytes", len(data), l.Framing(), l.WireBytes())
		}
		l.Close()
	}

	broken := errors.New("connection reset")
	l := OpenLayer(io.MultiReader(strings.NewReader("{"), iotest.ErrReader(broken)))
	defer l.Close()
	if _, err := l.Read(make([]byte, 8)); !errors.Is(err, broken) {
		t.Fatalf("Read after a failed sniff: %v", err)
	}
	if err := l.Walk(func(Entry, io.Reader) error { return nil }); !errors.Is(err, broken) {
		t.Fatalf("Walk after a failed sniff: %v", err)
	}
}
