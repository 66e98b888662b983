package filetype

import (
	"bytes"
	"encoding/binary"
	"path"
	"strings"
	"unicode/utf8"
)

// sniffLen is how many leading bytes Classify examines for content
// heuristics; matching file(1)'s default behaviour of looking at a bounded
// prefix keeps classification O(1) per file regardless of size.
const sniffLen = 1024

// uncommonMagic is the synthetic magic prefix carried by generated files of
// the "uncommon" tail so that materialized datasets classify losslessly. It
// is documented in DESIGN.md as a substitution artifact.
var uncommonMagic = []byte{0x00, 'U', 'N', 'C', 0xBE}

// Classify determines the type of a file from its name and content, magic
// numbers first (like file(1)), then shebangs and content markers, then the
// file name, then text-encoding detection. It never fails: content that
// matches nothing is BinaryData.
func Classify(name string, data []byte) Type {
	if len(data) == 0 {
		return EmptyFile
	}
	if t, ok := classifyMagic(data); ok {
		return t
	}
	if t, ok := classifyShebang(data); ok {
		return t
	}
	if t, ok := classifyContentMarkers(data); ok {
		return t
	}
	if t, ok := classifyName(name, data); ok {
		return t
	}
	if t, ok := classifyText(data); ok {
		return t
	}
	return BinaryData
}

func classifyMagic(data []byte) (Type, bool) {
	// Synthetic uncommon tail: magic + big-endian type index.
	if len(data) >= len(uncommonMagic)+2 && bytes.HasPrefix(data, uncommonMagic) {
		id := int(binary.BigEndian.Uint16(data[len(uncommonMagic):]))
		if id < MaxUncommon {
			return UncommonType(id), true
		}
	}
	switch {
	case len(data) >= 18 && data[0] == 0x7F && data[1] == 'E' && data[2] == 'L' && data[3] == 'F':
		// e_type at offset 16 (little-endian for our purposes; synthetic
		// content and the vast majority of Docker Hub binaries are
		// ELFCLASS64 LSB).
		switch binary.LittleEndian.Uint16(data[16:18]) {
		case 1:
			return ElfRelocatable, true
		case 3:
			return ElfSharedObject, true
		default:
			return ElfExecutable, true
		}
	case len(data) >= 4 && bytes.HasPrefix(data, []byte{0xCA, 0xFE, 0xBA, 0xBE}):
		// CAFEBABE is shared by Java class files and fat Mach-O binaries;
		// disambiguate the way file(1) does, by the next 32-bit word: a fat
		// Mach-O arch count is tiny, a Java version word is ≥ 0x2D (45).
		if len(data) >= 8 && binary.BigEndian.Uint32(data[4:8]) < 40 {
			return MachO, true
		}
		return JavaClass, true
	case len(data) >= 4 && (bytes.HasPrefix(data, []byte{0xFE, 0xED, 0xFA, 0xCE}) ||
		bytes.HasPrefix(data, []byte{0xFE, 0xED, 0xFA, 0xCF}) ||
		bytes.HasPrefix(data, []byte{0xCF, 0xFA, 0xED, 0xFE})):
		return MachO, true
	case len(data) >= 4 && bytes.HasPrefix(data, []byte{0x16, 0x0D, 0x0D, 0x0A}):
		// CPython 3.x pyc magic (3.7+ variant); older magics end 0x0D0A too.
		return PythonBytecode, true
	case len(data) >= 4 && data[2] == 0x0D && data[3] == 0x0A && data[0] != 0 && data[1] != 0 &&
		!isMostlyText(data):
		// Generic CPython pyc: two version bytes followed by \r\n.
		return PythonBytecode, true
	case len(data) >= 2 && data[0] == 0x1A && data[1] == 0x01:
		return TerminfoCompiled, true
	case len(data) >= 2 && data[0] == 'M' && data[1] == 'Z':
		return MicrosoftPE, true
	case len(data) >= 20 && data[0] == 0x4C && data[1] == 0x01:
		// COFF object for i386 (IMAGE_FILE_MACHINE_I386).
		return COFFObject, true
	case len(data) >= 4 && bytes.HasPrefix(data, []byte{0xED, 0xAB, 0xEE, 0xDB}):
		return RPMPackage, true
	case bytes.HasPrefix(data, []byte("!<arch>\n")):
		if len(data) >= 8+13 && bytes.HasPrefix(data[8:], []byte("debian-binary")) {
			return DebianPackage, true
		}
		return ArArchiveLibrary, true
	case bytes.HasPrefix(data, []byte("LIBRPalmOS")):
		// Synthetic stand-in for file(1)'s "Palm OS dynamic library" match.
		return PalmOSLibrary, true
	case bytes.HasPrefix(data, []byte("Caml1999")):
		return OCamlLibrary, true

	case len(data) >= 2 && data[0] == 0x1F && data[1] == 0x8B:
		return GzipArchive, true
	case bytes.HasPrefix(data, []byte("PK\x03\x04")) || bytes.HasPrefix(data, []byte("PK\x05\x06")):
		return ZipArchive, true
	case bytes.HasPrefix(data, []byte("BZh")):
		return Bzip2Archive, true
	case bytes.HasPrefix(data, []byte{0xFD, '7', 'z', 'X', 'Z', 0x00}):
		return XZArchive, true
	case len(data) >= 262+5 && bytes.Equal(data[257:262], []byte("ustar")):
		return TarArchive, true
	case bytes.HasPrefix(data, []byte("070701")) || bytes.HasPrefix(data, []byte("070707")):
		return CpioArchive, true

	case bytes.HasPrefix(data, []byte{0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A}):
		return PNGImage, true
	case len(data) >= 3 && data[0] == 0xFF && data[1] == 0xD8 && data[2] == 0xFF:
		return JPEGImage, true
	case bytes.HasPrefix(data, []byte("GIF87a")) || bytes.HasPrefix(data, []byte("GIF89a")):
		return GIFImage, true
	case bytes.HasPrefix(data, []byte("BM")) && len(data) >= 26:
		return BMPImage, true
	case bytes.HasPrefix(data, []byte("II*\x00")) || bytes.HasPrefix(data, []byte("MM\x00*")):
		return TIFFImage, true
	case bytes.HasPrefix(data, []byte{0x00, 0x00, 0x01, 0x00}) && len(data) >= 6:
		return ICOImage, true

	case bytes.HasPrefix(data, []byte("SQLite format 3\x00")):
		return SQLiteDB, true
	case len(data) >= 16 && isBerkeleyDBMagic(binary.LittleEndian.Uint32(data[12:16])):
		return BerkeleyDB, true
	case len(data) >= 16 && isBerkeleyDBMagic(binary.BigEndian.Uint32(data[12:16])):
		return BerkeleyDB, true
	case len(data) >= 4 && data[0] == 0xFE && data[1] == 0xFE && data[2] == 0x07:
		return MySQLMyISAM, true
	case len(data) >= 2 && data[0] == 0xFE && data[1] == 0x01:
		return MySQLFrm, true

	case bytes.HasPrefix(data, []byte("RIFF")) && len(data) >= 12:
		switch {
		case bytes.Equal(data[8:12], []byte("AVI ")):
			return AVIVideo, true
		case bytes.Equal(data[8:12], []byte("WAVE")):
			return WAVAudio, true
		}
		return BinaryData, true
	case len(data) >= 4 && data[0] == 0x00 && data[1] == 0x00 && data[2] == 0x01 && data[3] >= 0xB0 && data[3] <= 0xBF:
		return MPEGVideo, true
	case len(data) >= 12 && bytes.Equal(data[4:8], []byte("ftyp")):
		return MP4Video, true
	case bytes.HasPrefix(data, []byte("OggS")):
		return OggMedia, true

	case bytes.HasPrefix(data, []byte("%PDF-")):
		return PDFDoc, true
	case bytes.HasPrefix(data, []byte("%!PS")):
		return PostScriptDoc, true
	case len(data) >= 2 && ((data[0] == 0xFF && data[1] == 0xFE) || (data[0] == 0xFE && data[1] == 0xFF)):
		return UTF16Text, true
	}
	return 0, false
}

// isBerkeleyDBMagic recognizes the classic Berkeley DB access-method magics
// (btree 0x00053162, hash 0x00061561, queue 0x00042253, log 0x00040988).
func isBerkeleyDBMagic(m uint32) bool {
	switch m {
	case 0x00053162, 0x00061561, 0x00042253, 0x00040988:
		return true
	}
	return false
}

func classifyShebang(data []byte) (Type, bool) {
	if !bytes.HasPrefix(data, []byte("#!")) {
		return 0, false
	}
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	if len(line) > 128 {
		line = line[:128]
	}
	s := string(line)
	switch {
	case strings.Contains(s, "python"):
		return PythonScript, true
	case strings.Contains(s, "bash"), strings.Contains(s, "/sh"),
		strings.Contains(s, "dash"), strings.Contains(s, "zsh"),
		strings.Contains(s, "ksh"):
		return ShellScript, true
	case strings.Contains(s, "ruby"):
		return RubyScript, true
	case strings.Contains(s, "perl"):
		return PerlScript, true
	case strings.Contains(s, "awk"):
		return AwkScript, true
	case strings.Contains(s, "node"):
		return NodeScript, true
	case strings.Contains(s, "tclsh"), strings.Contains(s, "wish"):
		return TclScript, true
	case strings.Contains(s, "php"):
		return PHPScript, true
	}
	// Unknown interpreter: still a script; the paper lumps these under
	// shell-ish "others" — classify as shell for determinism.
	return ShellScript, true
}

func classifyContentMarkers(data []byte) (Type, bool) {
	head := data
	if len(head) > sniffLen {
		head = head[:sniffLen]
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	switch {
	case bytes.HasPrefix(trimmed, []byte("<?php")):
		return PHPScript, true
	case bytes.HasPrefix(trimmed, []byte("<?xml")):
		if bytes.Contains(head, []byte("<svg")) {
			return SVGImage, true
		}
		return XMLDoc, true
	case bytes.HasPrefix(trimmed, []byte("<svg")):
		return SVGImage, true
	case hasHTMLMarker(trimmed):
		return HTMLDoc, true
	case bytes.HasPrefix(trimmed, []byte("\\documentclass")), bytes.HasPrefix(trimmed, []byte("\\begin{document}")):
		return LaTeXDoc, true
	case bytes.HasPrefix(trimmed, []byte("{")) && looksLikeJSON(trimmed):
		return JSONData, true
	}
	return 0, false
}

func hasHTMLMarker(b []byte) bool {
	return hasPrefixFoldASCII(b, "<!doctype html") || hasPrefixFoldASCII(b, "<html")
}

// hasPrefixFoldASCII reports whether b starts with the lower-case ASCII
// marker, ignoring the case of ASCII letters. Only len(marker) bytes are
// looked at — lower-casing the whole sniffed prefix to test its first 14
// bytes cost an allocation per text file. It agrees with bytes.ToLower +
// bytes.HasPrefix for any marker without 'k' or 'i': those are the only
// ASCII letters a non-ASCII rune (U+212A, U+0130) lower-cases to.
func hasPrefixFoldASCII(b []byte, marker string) bool {
	if len(b) < len(marker) {
		return false
	}
	for i := 0; i < len(marker); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != marker[i] {
			return false
		}
	}
	return true
}

// looksLikeJSON is a cheap structural sniff: starts with '{', contains a
// quoted key followed by a colon within the prefix.
func looksLikeJSON(b []byte) bool {
	i := bytes.IndexByte(b, '"')
	if i < 0 {
		return false
	}
	j := bytes.IndexByte(b[i+1:], '"')
	if j < 0 {
		return false
	}
	rest := bytes.TrimLeft(b[i+1+j+1:], " \t\r\n")
	return len(rest) > 0 && rest[0] == ':'
}

// extTypes maps file extensions to source/script types for content that has
// no distinguishing magic. The paper's classifier (file(1)) uses language
// heuristics; name-based dispatch is the deterministic equivalent.
var extTypes = map[string]Type{
	".c":     CSource,
	".cc":    CppSource,
	".cpp":   CppSource,
	".cxx":   CppSource,
	".hpp":   CppSource,
	".h":     CHeader,
	".pm":    Perl5Module,
	".pl":    PerlScript,
	".rb":    RubyModule,
	".pas":   PascalSource,
	".pp":    PascalSource,
	".f":     FortranSource,
	".f90":   FortranSource,
	".f77":   FortranSource,
	".bas":   ApplesoftBasic,
	".lisp":  LispScheme,
	".lsp":   LispScheme,
	".scm":   LispScheme,
	".el":    LispScheme,
	".py":    PythonScript,
	".sh":    ShellScript,
	".bash":  ShellScript,
	".awk":   AwkScript,
	".php":   PHPScript,
	".m4":    M4Macro,
	".js":    NodeScript,
	".mjs":   NodeScript,
	".tcl":   TclScript,
	".mk":    MakefileScript,
	".tex":   LaTeXDoc,
	".html":  HTMLDoc,
	".htm":   HTMLDoc,
	".xhtml": HTMLDoc,
	".xml":   XMLDoc,
	".svg":   SVGImage,
	".json":  JSONData,
}

func classifyName(name string, data []byte) (Type, bool) {
	base := path.Base(name)
	lower := strings.ToLower(base)
	if lower == "makefile" || strings.HasPrefix(lower, "makefile.") || lower == "gnumakefile" {
		return MakefileScript, true
	}
	ext := strings.ToLower(path.Ext(base))
	t, ok := extTypes[ext]
	if !ok {
		return 0, false
	}
	// Extension dispatch only applies to textual content; a .c file full of
	// binary bytes is data, matching file(1)'s behaviour.
	if !isMostlyText(data) {
		return 0, false
	}
	// Ruby: module if it declares one, script otherwise.
	if t == RubyModule && !bytes.Contains(prefix(data, sniffLen), []byte("module ")) {
		return RubyScript, true
	}
	return t, true
}

func prefix(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// classifyText performs text-encoding detection over the sniff window:
// pure 7-bit printable → ASCII; valid UTF-8 with multibyte sequences →
// UTF-8; mostly printable with high bytes → ISO-8859.
func classifyText(data []byte) (Type, bool) {
	head := prefix(data, sniffLen)
	if !isMostlyText(head) {
		return 0, false
	}
	ascii := true
	for _, b := range head {
		if b >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return ASCIIText, true
	}
	if utf8.Valid(head) {
		return UTF8Text, true
	}
	return ISO8859Text, true
}

// isMostlyText reports whether the prefix looks like text: no NUL bytes and
// at least 85% printable/whitespace characters.
func isMostlyText(data []byte) bool {
	head := prefix(data, sniffLen)
	if len(head) == 0 {
		return false
	}
	printable := 0
	for _, b := range head {
		switch {
		case b == 0:
			return false
		case b == '\n' || b == '\r' || b == '\t' || (b >= 0x20 && b < 0x7F) || b >= 0x80:
			printable++
		}
	}
	return float64(printable)/float64(len(head)) >= 0.85
}
