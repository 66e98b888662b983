package filetype

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Generate produces synthetic file content of the given type. The result
// always classifies back to t (given a name from SuggestName), carries the
// type's magic number, and is at least MinSize(t) bytes long — size requests
// below the minimum are rounded up so the magic survives.
//
// entropy in [0, 1] controls compressibility of the filler body: 0 yields a
// highly repetitive (very compressible) body, 1 yields incompressible random
// bytes. Binary types use random/pattern blocks; text types mix dictionary
// words with random identifiers so the content stays textual.
func Generate(t Type, size int64, entropy float64, rng *rand.Rand) []byte {
	if t == EmptyFile {
		return []byte{}
	}
	if entropy < 0 {
		entropy = 0
	}
	if entropy > 1 {
		entropy = 1
	}
	header, textual := header(t)
	if min := int64(len(header)); size < min {
		size = min
	}
	buf := make([]byte, size)
	copy(buf, header)
	body := buf[len(header):]
	if textual {
		fillText(body, entropy, rng)
	} else {
		fillBinary(body, entropy, rng)
	}
	return buf
}

// MinSize returns the smallest content length Generate can produce for t
// while keeping it classifiable: its header's length, read from a table.
func MinSize(t Type) int64 { return headerLens[t] }

// headerLens holds every type's header length, built once: synth sizes
// each unique file of a dataset by it.
var headerLens = func() (n [NamedTypes + MaxUncommon]int64) {
	for t := range Type(len(n)) {
		if t != EmptyFile {
			h, _ := header(t)
			n[t] = int64(len(h))
		}
	}
	return n
}()

// header returns the magic header for t and whether the body filler must be
// textual for the classification to hold. It draws nothing: a type's
// header is fixed.
func header(t Type) ([]byte, bool) {
	switch t {
	case ElfExecutable:
		return elfHeader(2), false
	case ElfSharedObject:
		return elfHeader(3), false
	case ElfRelocatable:
		return elfHeader(1), false
	case PythonBytecode:
		return []byte{0x16, 0x0D, 0x0D, 0x0A, 0, 0, 0, 0}, false
	case JavaClass:
		return []byte{0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x37}, false
	case TerminfoCompiled:
		return []byte{0x1A, 0x01, 0x00, 0x00}, false
	case MicrosoftPE:
		return []byte("MZ\x90\x00\x03\x00\x00\x00"), false
	case COFFObject:
		h := make([]byte, 20)
		h[0], h[1] = 0x4C, 0x01
		return h, false
	case MachO:
		return []byte{0xCF, 0xFA, 0xED, 0xFE, 0x07, 0x00, 0x00, 0x01}, false
	case DebianPackage:
		return []byte("!<arch>\ndebian-binary   1234567890  0     0     100644  4         `\n2.0\n"), false
	case RPMPackage:
		return []byte{0xED, 0xAB, 0xEE, 0xDB, 0x03, 0x00, 0x00, 0x00}, false
	case ArArchiveLibrary:
		return []byte("!<arch>\nobj0.o/         1234567890  0     0     100644  128       `\n"), false
	case PalmOSLibrary:
		return []byte("LIBRPalmOS\x00\x01"), false
	case OCamlLibrary:
		return []byte("Caml1999X028"), false

	case CSource:
		return []byte("#include <stdio.h>\n#include <stdlib.h>\n\nint main(int argc, char **argv) {\n"), true
	case CppSource:
		return []byte("#include <iostream>\n#include <vector>\n\nnamespace app {\n"), true
	case CHeader:
		return []byte("#ifndef APP_H_\n#define APP_H_\n\n"), true
	case Perl5Module:
		return []byte("package App::Module;\nuse strict;\nuse warnings;\n"), true
	case RubyModule:
		return []byte("# frozen_string_literal: true\nmodule App\n"), true
	case PascalSource:
		return []byte("program App;\nvar x: integer;\nbegin\n"), true
	case FortranSource:
		return []byte("      PROGRAM APP\n      INTEGER I\n"), true
	case ApplesoftBasic:
		return []byte("10 PRINT \"HELLO\"\n20 GOTO 10\n"), true
	case LispScheme:
		return []byte("(define (main args)\n  (display \"hello\")\n"), true

	case PythonScript:
		return []byte("#!/usr/bin/env python3\nimport os\nimport sys\n"), true
	case ShellScript:
		return []byte("#!/bin/sh\nset -e\n"), true
	case RubyScript:
		return []byte("#!/usr/bin/env ruby\nrequire 'json'\n"), true
	case PerlScript:
		return []byte("#!/usr/bin/perl\nuse strict;\n"), true
	case PHPScript:
		return []byte("<?php\ndeclare(strict_types=1);\n"), true
	case AwkScript:
		return []byte("#!/usr/bin/awk -f\nBEGIN { FS=\",\" }\n"), true
	case MakefileScript:
		return []byte(".PHONY: all\nall: build\n"), true
	case M4Macro:
		return []byte("dnl M4 macro definitions\ndefine(`app_version', `1.0')dnl\n"), true
	case NodeScript:
		return []byte("#!/usr/bin/env node\n'use strict';\n"), true
	case TclScript:
		return []byte("#!/usr/bin/tclsh\nset x 1\n"), true

	case ASCIIText:
		return []byte("NOTES\n=====\n"), true
	case UTF8Text:
		return []byte("r\xC3\xA9sum\xC3\xA9 \xE2\x80\x94 notes\n"), true
	case UTF16Text:
		return utf16Header(), false
	case ISO8859Text:
		return []byte("caf\xE9 men\xFA\n"), true
	case HTMLDoc:
		return []byte("<!DOCTYPE html>\n<html><head><title>t</title></head><body>\n"), true
	case XMLDoc:
		return []byte("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<root>\n"), true
	case PDFDoc:
		return []byte("%PDF-1.4\n%\xE2\xE3\xCF\xD3\n"), false
	case PostScriptDoc:
		return []byte("%!PS-Adobe-3.0\n%%Pages: 1\n"), true
	case LaTeXDoc:
		return []byte("\\documentclass{article}\n\\begin{document}\n"), true

	case GzipArchive:
		return []byte{0x1F, 0x8B, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0x03}, false
	case ZipArchive:
		return []byte("PK\x03\x04\x14\x00\x00\x00\x08\x00"), false
	case Bzip2Archive:
		return []byte("BZh91AY&SY"), false
	case XZArchive:
		return []byte{0xFD, '7', 'z', 'X', 'Z', 0x00, 0x00, 0x04}, false
	case TarArchive:
		return tarHeader(), false
	case CpioArchive:
		return []byte("070701" + "00000000"), false

	case PNGImage:
		return []byte{0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A, 0, 0, 0, 13, 'I', 'H', 'D', 'R'}, false
	case JPEGImage:
		return []byte{0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, 'J', 'F', 'I', 'F', 0x00}, false
	case GIFImage:
		return []byte("GIF89a\x10\x00\x10\x00"), false
	case SVGImage:
		return []byte("<?xml version=\"1.0\"?>\n<svg xmlns=\"http://www.w3.org/2000/svg\">\n"), true
	case BMPImage:
		h := make([]byte, 26)
		h[0], h[1] = 'B', 'M'
		return h, false
	case TIFFImage:
		return []byte("II*\x00\x08\x00\x00\x00"), false
	case ICOImage:
		return []byte{0x00, 0x00, 0x01, 0x00, 0x01, 0x00}, false

	case SQLiteDB:
		return []byte("SQLite format 3\x00"), false
	case BerkeleyDB:
		h := make([]byte, 16)
		binary.LittleEndian.PutUint32(h[12:16], 0x00053162)
		return h, false
	case MySQLMyISAM:
		return []byte{0xFE, 0xFE, 0x07, 0x01}, false
	case MySQLFrm:
		return []byte{0xFE, 0x01, 0x0A, 0x00}, false

	case AVIVideo:
		return []byte("RIFF\x00\x10\x00\x00AVI LIST"), false
	case MPEGVideo:
		return []byte{0x00, 0x00, 0x01, 0xB3, 0x16, 0x00}, false
	case MP4Video:
		return []byte{0x00, 0x00, 0x00, 0x18, 'f', 't', 'y', 'p', 'i', 's', 'o', 'm'}, false
	case WAVAudio:
		return []byte("RIFF\x00\x10\x00\x00WAVEfmt "), false
	case OggMedia:
		return []byte("OggS\x00\x02\x00\x00"), false

	case JSONData:
		return []byte("{\"schema\": \"v1\", \"items\": [\n"), true
	case BinaryData:
		// 0xDEAD then two zero bytes: avoids every magic above, including
		// the generic pyc heuristic (which needs data[2:4] == \r\n).
		return []byte{0xDE, 0xAD, 0x00, 0x01}, false
	}
	if t.IsUncommon() {
		h := make([]byte, len(uncommonMagic)+2)
		copy(h, uncommonMagic)
		binary.BigEndian.PutUint16(h[len(uncommonMagic):], uint16(t-NamedTypes))
		return h, false
	}
	panic(fmt.Sprintf("filetype: Generate for unknown type %d", uint16(t)))
}

func elfHeader(etype uint16) []byte {
	h := make([]byte, 64)
	copy(h, []byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0}) // ELFCLASS64, LSB, v1
	binary.LittleEndian.PutUint16(h[16:18], etype)
	binary.LittleEndian.PutUint16(h[18:20], 0x3E) // x86-64
	return h
}

func utf16Header() []byte {
	// UTF-16LE BOM followed by "notes\n" in UTF-16.
	h := []byte{0xFF, 0xFE}
	for _, r := range "notes\n" {
		h = append(h, byte(r), 0)
	}
	return h
}

func tarHeader() []byte {
	h := make([]byte, 512)
	copy(h, "member.txt")
	copy(h[257:], "ustar\x0000")
	return h
}

// fillBinary writes filler into buf: entropy fraction of 64-byte blocks are
// random, the rest repeat one pattern block drawn once per call.
func fillBinary(buf []byte, entropy float64, rng *rand.Rand) {
	if len(buf) == 0 {
		return
	}
	var pattern [64]byte
	rng.Read(pattern[:])
	for off := 0; off < len(buf); off += 64 {
		end := off + 64
		if end > len(buf) {
			end = len(buf)
		}
		block := buf[off:end]
		if rng.Float64() < entropy {
			rng.Read(block)
			sanitizeBlock(block)
		} else {
			copy(block, pattern[:])
		}
	}
}

// sanitizeBlock removes byte values that could accidentally form text or
// the NUL-free runs some heuristics key on; cheap insurance that random
// filler never flips a classification. Specifically it forces one NUL into
// the block so isMostlyText can never hold for binary filler windows.
func sanitizeBlock(block []byte) {
	if len(block) > 0 {
		block[0] = 0
	}
}

// lexicon supplies compressible filler words for textual bodies.
var lexicon = []string{
	"config", "install", "library", "package", "version", "depends",
	"service", "container", "registry", "layer", "update", "default",
	"handler", "buffer", "module", "return", "static", "export",
}

// fillText writes textual filler: dictionary words (compressible) mixed
// with random identifiers (incompressible) according to entropy. The output
// is pure printable ASCII so text classifications are preserved.
func fillText(buf []byte, entropy float64, rng *rand.Rand) {
	const idLen = 12
	pos := 0
	for pos < len(buf) {
		var word string
		if rng.Float64() < entropy {
			var id [idLen]byte
			for i := range id {
				id[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[rng.Intn(36)]
			}
			word = string(id[:])
		} else {
			word = lexicon[rng.Intn(len(lexicon))]
		}
		n := copy(buf[pos:], word)
		pos += n
		if pos < len(buf) {
			if (pos/72)%2 == 0 {
				buf[pos] = ' '
			} else {
				buf[pos] = '\n'
			}
			pos++
		}
	}
	if len(buf) > 0 {
		buf[len(buf)-1] = '\n'
	}
}

// SuggestName returns a deterministic file name appropriate for t, so that
// name-dependent classifications (source files, Makefiles) round-trip. id
// individualizes the name.
func SuggestName(t Type, id uint64) string {
	switch t {
	case CSource:
		return fmt.Sprintf("src_%d.c", id)
	case CppSource:
		return fmt.Sprintf("src_%d.cpp", id)
	case CHeader:
		return fmt.Sprintf("hdr_%d.h", id)
	case Perl5Module:
		return fmt.Sprintf("Module%d.pm", id)
	case RubyModule, RubyScript:
		return fmt.Sprintf("mod_%d.rb", id)
	case PascalSource:
		return fmt.Sprintf("prog_%d.pas", id)
	case FortranSource:
		return fmt.Sprintf("calc_%d.f90", id)
	case ApplesoftBasic:
		return fmt.Sprintf("prog_%d.bas", id)
	case LispScheme:
		return fmt.Sprintf("core_%d.scm", id)
	case PythonScript:
		return fmt.Sprintf("tool_%d.py", id)
	case ShellScript:
		return fmt.Sprintf("run_%d.sh", id)
	case PerlScript:
		return fmt.Sprintf("job_%d.pl", id)
	case PHPScript:
		return fmt.Sprintf("page_%d.php", id)
	case AwkScript:
		return fmt.Sprintf("filter_%d.awk", id)
	case MakefileScript:
		return "Makefile"
	case M4Macro:
		return fmt.Sprintf("macros_%d.m4", id)
	case NodeScript:
		return fmt.Sprintf("app_%d.js", id)
	case TclScript:
		return fmt.Sprintf("ui_%d.tcl", id)
	case HTMLDoc:
		return fmt.Sprintf("page_%d.html", id)
	case XMLDoc:
		return fmt.Sprintf("data_%d.xml", id)
	case LaTeXDoc:
		return fmt.Sprintf("paper_%d.tex", id)
	case JSONData:
		return fmt.Sprintf("conf_%d.json", id)
	case SVGImage:
		return fmt.Sprintf("icon_%d.svg", id)
	case PNGImage:
		return fmt.Sprintf("img_%d.png", id)
	case JPEGImage:
		return fmt.Sprintf("photo_%d.jpg", id)
	case GIFImage:
		return fmt.Sprintf("anim_%d.gif", id)
	case ElfExecutable:
		return fmt.Sprintf("bin_%d", id)
	case ElfSharedObject:
		return fmt.Sprintf("lib_%d.so", id)
	case ElfRelocatable:
		return fmt.Sprintf("obj_%d.o", id)
	case PythonBytecode:
		return fmt.Sprintf("mod_%d.pyc", id)
	case JavaClass:
		return fmt.Sprintf("Class%d.class", id)
	case EmptyFile:
		return fmt.Sprintf("__init___%d.py", id)
	case GzipArchive:
		return fmt.Sprintf("bundle_%d.tar.gz", id)
	case ZipArchive:
		return fmt.Sprintf("pkg_%d.zip", id)
	case Bzip2Archive:
		return fmt.Sprintf("pkg_%d.tar.bz2", id)
	case XZArchive:
		return fmt.Sprintf("pkg_%d.tar.xz", id)
	case TarArchive:
		return fmt.Sprintf("pkg_%d.tar", id)
	case SQLiteDB:
		return fmt.Sprintf("store_%d.sqlite", id)
	case ASCIIText:
		return fmt.Sprintf("README_%d", id)
	default:
		return fmt.Sprintf("file_%d.bin", id)
	}
}
