package digest

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// emptySHA256 is the well-known digest of the empty input.
const emptySHA256 = "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

func TestFromBytesEmpty(t *testing.T) {
	if got := FromBytes(nil); got != emptySHA256 {
		t.Fatalf("FromBytes(nil) = %s, want %s", got, emptySHA256)
	}
}

func TestParseValid(t *testing.T) {
	d, err := Parse(emptySHA256)
	if err != nil {
		t.Fatalf("Parse(valid) error: %v", err)
	}
	if d.Hex() != strings.TrimPrefix(emptySHA256, "sha256:") {
		t.Fatalf("Hex() = %q", d.Hex())
	}
	if d.Short() != "e3b0c44298fc" {
		t.Fatalf("Short() = %q", d.Short())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		desc string
	}{
		{"", "empty"},
		{"sha256", "no separator"},
		{"md5:abcd", "unknown algorithm"},
		{"sha256:abc", "short hex"},
		{"sha256:" + strings.Repeat("g", 64), "non-hex chars"},
		{"sha256:" + strings.Repeat("A", 64), "upper-case hex rejected"},
		{"sha256:" + strings.Repeat("0", 65), "long hex"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil {
			t.Errorf("Parse(%q) [%s]: expected error, got nil", c.in, c.desc)
		}
	}
}

func TestValid(t *testing.T) {
	if !Digest(emptySHA256).Valid() {
		t.Error("known digest reported invalid")
	}
	if Digest("bogus").Valid() {
		t.Error("bogus digest reported valid")
	}
}

func TestFromUint64Deterministic(t *testing.T) {
	a, b := FromUint64(42), FromUint64(42)
	if a != b {
		t.Fatal("FromUint64 not deterministic")
	}
	if FromUint64(42) == FromUint64(43) {
		t.Fatal("adjacent seeds collided")
	}
	if !a.Valid() {
		t.Fatal("FromUint64 produced invalid digest")
	}
}

func TestStringAndShortEdgeCases(t *testing.T) {
	d := Digest(emptySHA256)
	if d.String() != emptySHA256 {
		t.Errorf("String() = %q", d.String())
	}
	if Digest("short").Hex() != "" {
		t.Error("malformed Hex should be empty")
	}
	if got := Digest("x:abc").Short(); got != "abc" {
		t.Errorf("Short of tiny hex = %q", got)
	}
}

func TestKey64(t *testing.T) {
	d := Digest("sha256:0123456789abcdef" + strings.Repeat("0", 48))
	if got := d.Key64(); got != 0x0123456789abcdef {
		t.Fatalf("Key64 = %#x", got)
	}
	if got := Key64Hex([]byte(d.Hex())); got != 0x0123456789abcdef {
		t.Fatalf("Key64Hex over bytes = %#x", got)
	}
	if Digest("bogus").Key64() != 0 {
		t.Error("malformed digest Key64 should be 0")
	}
	if Digest("sha256:zzzzzzzzzzzzzzzz"+strings.Repeat("0", 48)).Key64() != 0 {
		t.Error("non-hex Key64 should be 0")
	}
	// Distinct digests give distinct keys (with overwhelming probability).
	if FromBytes([]byte("a")).Key64() == FromBytes([]byte("b")).Key64() {
		t.Error("Key64 collision on trivial inputs")
	}
}

// Property: every digest produced from bytes parses and round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		d := FromBytes(b)
		parsed, err := Parse(string(d))
		return err == nil && parsed == d && d.Valid() && len(d.Hex()) == 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct inputs (almost surely) produce distinct digests and
// identical inputs always produce identical digests.
func TestQuickDeterminismAndSeparation(t *testing.T) {
	f := func(a, b []byte) bool {
		da1, da2 := FromBytes(a), FromBytes(a)
		if da1 != da2 {
			return false
		}
		if bytes.Equal(a, b) {
			return FromBytes(b) == da1
		}
		return FromBytes(b) != da1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: streaming any split of the input through a Hasher matches the
// one-shot digest.
func TestQuickHasherSplits(t *testing.T) {
	f := func(data []byte, cut uint8) bool {
		i := int(cut) % (len(data) + 1)
		h := NewHasher()
		h.Write(data[:i])
		h.Write(data[i:])
		return h.Digest() == FromBytes(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromBytes4K(b *testing.B) {
	buf := bytes.Repeat([]byte{0xab}, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromBytes(buf)
	}
}

func TestHasherKey64MatchesDigest(t *testing.T) {
	h := NewHasher()
	for _, chunk := range []string{"", "layer", "-content", "-bytes"} {
		h.Write([]byte(chunk))
		if got, want := h.Key64(), h.Digest().Key64(); got != want {
			t.Fatalf("after %q: Hasher.Key64 = %#x, Digest().Key64 = %#x", chunk, got, want)
		}
	}
}

func TestHasherReset(t *testing.T) {
	h := NewHasher()
	h.Write([]byte("pollute"))
	h.Reset()
	if got, want := h.Digest(), FromBytes(nil); got != want {
		t.Fatalf("after Reset: digest = %s, want empty-content digest %s", got, want)
	}
	h.Reset()
	h.Write([]byte("abc"))
	if got, want := h.Digest(), FromBytes([]byte("abc")); got != want {
		t.Fatalf("Reset+Write digest = %s, want %s", got, want)
	}
}

// TestDigestAllocs pins a digest to one allocation, its string: the hex is
// spelled into a stack array and the sum lands in the Hasher's own array.
func TestDigestAllocs(t *testing.T) {
	data := []byte("layer-content")
	if n := testing.AllocsPerRun(100, func() { FromBytes(data) }); n != 1 {
		t.Errorf("FromBytes allocates %v times, want 1", n)
	}
	h := NewHasher()
	h.Write(data)
	if n := testing.AllocsPerRun(100, func() { h.Digest() }); n != 1 {
		t.Errorf("Hasher.Digest allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Key64() }); n != 0 {
		t.Errorf("Hasher.Key64 allocates %v times, want 0", n)
	}
	want := FromBytes(data)
	if n := testing.AllocsPerRun(100, func() { h.Matches(want) }); n != 0 {
		t.Errorf("Hasher.Matches allocates %v times, want 0", n)
	}
}

// TestHasherMatches: Matches agrees with comparing Digest's string, for the
// content's digest and for digests one character off anywhere.
func TestHasherMatches(t *testing.T) {
	data := []byte("layer-content")
	h := NewHasher()
	h.Write(data)
	want := FromBytes(data)
	if !h.Matches(want) {
		t.Fatal("Matches refused the content's own digest")
	}
	for i := range want {
		b := []byte(want)
		b[i] ^= 1
		if h.Matches(Digest(b)) {
			t.Fatalf("Matches accepted %q", b)
		}
	}
	if h.Matches(want[:len(want)-1]) || h.Matches(want+"0") || h.Matches("") {
		t.Fatal("Matches accepted a digest of the wrong length")
	}
}
