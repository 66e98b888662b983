package filetype

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGroupString(t *testing.T) {
	if GroupEOL.String() != "EOL" || GroupDatabases.String() != "DB." {
		t.Fatalf("group names wrong: %s %s", GroupEOL, GroupDatabases)
	}
	if got := Group(200).String(); got == "" {
		t.Fatal("out-of-range group produced empty string")
	}
}

func TestGroupsCoverAllNamedTypes(t *testing.T) {
	seen := make(map[Group]int)
	for _, ft := range namedTypes() {
		seen[ft.Group()]++
		if ft.Name() == "" || ft.Family() == "" {
			t.Errorf("type %d has empty name or family", ft)
		}
	}
	for _, g := range []Group{GroupEOL, GroupSourceCode, GroupScripts, GroupDocuments,
		GroupArchival, GroupImageData, GroupDatabases, GroupMedia, GroupOther} {
		if seen[g] == 0 {
			t.Errorf("group %s has no named types", g)
		}
	}
}

func TestTypesInGroup(t *testing.T) {
	eol := 0
	for _, ft := range namedTypes() {
		if ft.Group() == GroupEOL {
			eol++
		}
	}
	if eol != 14 {
		t.Fatalf("EOL group has %d types, want 14", eol)
	}
}

func TestUncommonTypes(t *testing.T) {
	u := UncommonType(0)
	if !u.IsUncommon() {
		t.Fatal("UncommonType(0) not recognized")
	}
	if u.Group() != GroupOther || u.Family() != "Uncommon" {
		t.Fatalf("uncommon group/family: %v %v", u.Group(), u.Family())
	}
	if UncommonType(7).Name() != "uncommon-0007" {
		t.Fatalf("uncommon name: %s", UncommonType(7).Name())
	}
	last := UncommonType(MaxUncommon - 1)
	if !last.IsUncommon() {
		t.Fatal("last uncommon type not recognized")
	}
	if Type(NamedTypes + MaxUncommon).IsUncommon() {
		t.Fatal("type beyond uncommon range reported uncommon")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UncommonType(MaxUncommon) did not panic")
		}
	}()
	UncommonType(MaxUncommon)
}

func TestTotalTypeUniverseSize(t *testing.T) {
	// The paper reports ~1,500 observed types; the synthetic universe
	// (named + uncommon) should be in that ballpark.
	total := int(NamedTypes) + MaxUncommon
	if total < 1400 || total > 1600 {
		t.Fatalf("type universe has %d types, want ~1500", total)
	}
}

func TestBuildTaxonomy(t *testing.T) {
	usage := []TypeUsage{
		{Type: ElfExecutable, Count: 100, Capacity: 1000},
		{Type: ASCIIText, Count: 500, Capacity: 600},
		{Type: UncommonType(3), Count: 2, Capacity: 5},
		{Type: UncommonType(9), Count: 1, Capacity: 1},
	}
	tax := BuildTaxonomy(usage, 100)
	if len(tax.Common) != 2 || len(tax.Uncommon) != 2 {
		t.Fatalf("common/uncommon split: %d/%d", len(tax.Common), len(tax.Uncommon))
	}
	if tax.Common[0].Type != ElfExecutable {
		t.Fatalf("common not sorted by capacity: %v", tax.Common[0].Type)
	}
	wantShare := 1600.0 / 1606.0
	if diff := tax.CommonShare - wantShare; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("common share = %v, want %v", tax.CommonShare, wantShare)
	}
	if tax.TotalTypes != 4 {
		t.Fatalf("TotalTypes = %d", tax.TotalTypes)
	}
}

// TestBuildTaxonomyTies requires types of equal capacity to come out in
// type order whatever order they came in.
func TestBuildTaxonomyTies(t *testing.T) {
	usage := []TypeUsage{
		{Type: ASCIIText, Count: 1, Capacity: 500},
		{Type: ElfExecutable, Count: 2, Capacity: 500},
		{Type: UncommonType(9), Count: 1, Capacity: 5},
		{Type: UncommonType(3), Count: 1, Capacity: 5},
	}
	tax := BuildTaxonomy(usage, 100)
	if tax.Common[0].Type != ElfExecutable || tax.Uncommon[0].Type != UncommonType(3) {
		t.Fatalf("ties not in type order: common %+v, uncommon %+v", tax.Common, tax.Uncommon)
	}
}

func TestBuildTaxonomyEmpty(t *testing.T) {
	tax := BuildTaxonomy(nil, 7e9)
	if tax.CommonShare != 0 || tax.TotalTypes != 0 {
		t.Fatal("empty taxonomy not zero")
	}
}

// TestClassifyGenerateRoundTrip is the core contract: for every named type
// and a sample of uncommon types, generated content classifies back to the
// same type at several sizes and entropy levels.
func TestClassifyGenerateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	types := namedTypes()
	for i := 0; i < 25; i++ {
		types = append(types, UncommonType(i*53%MaxUncommon))
	}
	for _, ft := range types {
		for _, size := range []int64{0, 1, 100, 4096, 100_000} {
			for _, entropy := range []float64{0, 0.5, 1} {
				data := Generate(ft, size, entropy, rng)
				name := SuggestName(ft, uint64(size))
				got := Classify(name, data)
				want := ft
				// Ruby module content without "module" keyword downgrades
				// to script; our generator always includes it, but tiny
				// sizes may truncate nothing since headers are preserved.
				if got != want {
					t.Errorf("type %s size %d entropy %v: classified as %s",
						ft, size, entropy, got)
				}
				if int64(len(data)) < MinSize(ft) {
					t.Errorf("type %s: generated %d bytes < MinSize %d",
						ft, len(data), MinSize(ft))
				}
				if size >= MinSize(ft) && int64(len(data)) != size && ft != EmptyFile {
					t.Errorf("type %s: generated %d bytes, want %d", ft, len(data), size)
				}
			}
		}
	}
}

// TestMinSize: MinSize is the length of the shortest content Generate
// makes for every type, and reading it allocates nothing (synth calls it
// once per unique file of a dataset).
func TestMinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ft := range NamedTypes + MaxUncommon {
		if got, want := MinSize(ft), int64(len(Generate(ft, 0, 0, rng))); got != want {
			t.Errorf("MinSize(%s) = %d, Generate's shortest content is %d bytes", ft, got, want)
		}
	}
	types := []Type{ElfExecutable, ShellScript, TarArchive, EmptyFile, UncommonType(7)}
	if n := testing.AllocsPerRun(100, func() {
		for _, ft := range types {
			MinSize(ft)
		}
	}); n != 0 {
		t.Errorf("MinSize allocates %v times per %d calls, want 0", n, len(types))
	}
}

func TestClassifyEmpty(t *testing.T) {
	if got := Classify("anything", nil); got != EmptyFile {
		t.Fatalf("empty content classified as %s", got)
	}
	if got := Classify("x", []byte{}); got != EmptyFile {
		t.Fatalf("empty slice classified as %s", got)
	}
}

func TestClassifyShebangs(t *testing.T) {
	cases := []struct {
		content string
		want    Type
	}{
		{"#!/usr/bin/env python\nprint(1)\n", PythonScript},
		{"#!/usr/bin/python3\n", PythonScript},
		{"#!/bin/bash\necho hi\n", ShellScript},
		{"#!/bin/sh\n", ShellScript},
		{"#!/usr/bin/env ruby\n", RubyScript},
		{"#!/usr/bin/perl -w\n", PerlScript},
		{"#!/usr/bin/awk -f\n", AwkScript},
		{"#!/usr/bin/env node\n", NodeScript},
		{"#!/usr/bin/tclsh\n", TclScript},
		{"#!/usr/bin/php\n", PHPScript},
		{"#!/opt/custom/interp\n", ShellScript}, // unknown interpreter
	}
	for _, c := range cases {
		if got := Classify("noext", []byte(c.content)); got != c.want {
			t.Errorf("Classify(%q) = %s, want %s", c.content[:20], got, c.want)
		}
	}
}

func TestClassifyTextEncodings(t *testing.T) {
	if got := Classify("f", []byte("plain old text\n")); got != ASCIIText {
		t.Errorf("ascii: %s", got)
	}
	if got := Classify("f", []byte("caf\xc3\xa9 utf8\n")); got != UTF8Text {
		t.Errorf("utf8: %s", got)
	}
	if got := Classify("f", []byte{0xFF, 0xFE, 'h', 0, 'i', 0}); got != UTF16Text {
		t.Errorf("utf16: %s", got)
	}
	if got := Classify("f", []byte("caf\xe9 latin1\n")); got != ISO8859Text {
		t.Errorf("iso8859: %s", got)
	}
}

func TestClassifyRealGzip(t *testing.T) {
	// An actual gzip stream, not just the magic.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("hello"))
	zw.Close()
	if got := Classify("blob", buf.Bytes()); got != GzipArchive {
		t.Fatalf("real gzip classified as %s", got)
	}
}

func TestClassifyBinaryFallback(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0x00, 0x01, 0x02, 0x03}
	if got := Classify("f.weird", data); got != BinaryData {
		t.Fatalf("unknown binary classified as %s", got)
	}
}

func TestClassifyJavaVsMachO(t *testing.T) {
	java := []byte{0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x37, 1, 2}
	if got := Classify("A.class", java); got != JavaClass {
		t.Fatalf("java class: %s", got)
	}
	fat := []byte{0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x02, 1, 2}
	if got := Classify("bin", fat); got != MachO {
		t.Fatalf("fat mach-o: %s", got)
	}
}

func TestClassifyELFKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ft, want := range map[Type]Type{
		ElfExecutable: ElfExecutable, ElfSharedObject: ElfSharedObject, ElfRelocatable: ElfRelocatable,
	} {
		if got := Classify("b", Generate(ft, 200, 0.5, rng)); got != want {
			t.Errorf("elf kind %s classified as %s", want, got)
		}
	}
}

func TestClassifyDebianVsAr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Classify("p.deb", Generate(DebianPackage, 500, 0.5, rng)); got != DebianPackage {
		t.Fatalf("deb: %s", got)
	}
	if got := Classify("l.a", Generate(ArArchiveLibrary, 500, 0.5, rng)); got != ArArchiveLibrary {
		t.Fatalf("ar: %s", got)
	}
}

func TestClassifyMakefileByName(t *testing.T) {
	content := []byte("all:\n\tgcc -o app main.c\n")
	for _, name := range []string{"Makefile", "makefile", "GNUmakefile", "path/to/Makefile", "Makefile.am"} {
		if got := Classify(name, content); got != MakefileScript {
			t.Errorf("Classify(%s) = %s, want Makefile", name, got)
		}
	}
	if got := Classify("build.mk", content); got != MakefileScript {
		t.Errorf("Classify(build.mk) = %s", got)
	}
}

func TestClassifyRubyModuleVsScript(t *testing.T) {
	mod := []byte("# comment\nmodule Foo\nend\n")
	if got := Classify("foo.rb", mod); got != RubyModule {
		t.Errorf("ruby module: %s", got)
	}
	script := []byte("puts 'hello'\n")
	if got := Classify("run.rb", script); got != RubyScript {
		t.Errorf("ruby script: %s", got)
	}
}

func TestClassifyBinaryContentIgnoresExtension(t *testing.T) {
	// A .c file full of binary junk must not be classified as C source.
	data := append([]byte{0xDE, 0xAD, 0x00, 0x01}, bytes.Repeat([]byte{0x00, 0xFF}, 100)...)
	if got := Classify("fake.c", data); got == CSource {
		t.Fatal("binary content classified as C source via extension")
	}
}

func TestGenerateEntropyControlsCompressibility(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gzSize := func(data []byte) int {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		return buf.Len()
	}
	low := Generate(BinaryData, 1<<16, 0.0, rng)
	high := Generate(BinaryData, 1<<16, 1.0, rng)
	lowRatio := float64(len(low)) / float64(gzSize(low))
	highRatio := float64(len(high)) / float64(gzSize(high))
	if lowRatio < 10 {
		t.Errorf("entropy 0 compression ratio = %v, want > 10", lowRatio)
	}
	if highRatio > 1.2 {
		t.Errorf("entropy 1 compression ratio = %v, want ~1", highRatio)
	}
}

func TestGenerateTextEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gzSize := func(data []byte) int {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		return buf.Len()
	}
	low := Generate(ASCIIText, 1<<16, 0.0, rng)
	high := Generate(ASCIIText, 1<<16, 1.0, rng)
	if lr, hr := float64(len(low))/float64(gzSize(low)), float64(len(high))/float64(gzSize(high)); lr <= hr {
		t.Errorf("text entropy did not reduce compressibility: low=%v high=%v", lr, hr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ElfSharedObject, 10_000, 0.5, rand.New(rand.NewSource(5)))
	b := Generate(ElfSharedObject, 10_000, 0.5, rand.New(rand.NewSource(5)))
	if !bytes.Equal(a, b) {
		t.Fatal("Generate not deterministic for equal seeds")
	}
}

func TestGenerateEmptyFile(t *testing.T) {
	data := Generate(EmptyFile, 100, 0.5, rand.New(rand.NewSource(1)))
	if len(data) != 0 {
		t.Fatalf("EmptyFile generated %d bytes", len(data))
	}
}

// Property: Generate never produces content that classifies into a
// different group than requested, for random sizes and entropies over all
// named types.
func TestQuickGenerateGroupStable(t *testing.T) {
	f := func(typeIdx uint16, sizeSeed uint16, entSeed uint8, seed int64) bool {
		ft := Type(int(typeIdx) % int(NamedTypes))
		size := int64(sizeSeed)
		entropy := float64(entSeed) / 255
		rng := rand.New(rand.NewSource(seed))
		data := Generate(ft, size, entropy, rng)
		got := Classify(SuggestName(ft, uint64(sizeSeed)), data)
		return got == ft
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClassifyELF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := Generate(ElfSharedObject, 64<<10, 0.5, rng)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify("lib.so", data)
	}
}

func BenchmarkClassifyText(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := Generate(ASCIIText, 64<<10, 0.3, rng)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Classify("README", data)
	}
}

func BenchmarkGenerate64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(ElfExecutable, 64<<10, 0.5, rng)
	}
}

// namedTypes returns all named types in declaration order.
func namedTypes() []Type {
	out := make([]Type, NamedTypes)
	for i := range out {
		out[i] = Type(i)
	}
	return out
}
