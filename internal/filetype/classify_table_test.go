package filetype

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestClassifyHandcrafted classifies hand-written byte snippets modeled on
// real files — independent of Generate — so classifier and generator can't
// silently co-adapt. Every named type is covered.
func TestClassifyHandcrafted(t *testing.T) {
	elf := func(etype uint16) []byte {
		h := make([]byte, 64)
		copy(h, []byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0})
		binary.LittleEndian.PutUint16(h[16:18], etype)
		return h
	}
	tarBytes := make([]byte, 512)
	copy(tarBytes, "etc/hosts")
	copy(tarBytes[257:], "ustar\x00")
	bdb := make([]byte, 512)
	binary.LittleEndian.PutUint32(bdb[12:16], 0x00061561) // hash magic

	cases := []struct {
		name    string
		content []byte
		want    Type
	}{
		{"ls", elf(2), ElfExecutable},
		{"libc.so.6", elf(3), ElfSharedObject},
		{"crt1.o", elf(1), ElfRelocatable},
		{"module.cpython-36.pyc", []byte{0x33, 0x0D, 0x0D, 0x0A, 1, 2, 3, 4, 0x00}, PythonBytecode},
		{"Main.class", []byte{0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x34, 0x00, 0x1D}, JavaClass},
		{"xterm", []byte{0x1A, 0x01, 0x30, 0x00, 0x26, 0x00}, TerminfoCompiled},
		{"setup.exe", append([]byte("MZ\x90\x00"), make([]byte, 60)...), MicrosoftPE},
		{"obj.obj", append([]byte{0x4C, 0x01, 0x05, 0x00}, make([]byte, 30)...), COFFObject},
		{"osxbin", []byte{0xCF, 0xFA, 0xED, 0xFE, 0x07, 0x00, 0x00, 0x01}, MachO},
		{"fatbin", []byte{0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00}, MachO},
		{"curl.deb", []byte("!<arch>\ndebian-binary   1342943816  0     0     100644  4         `\n2.0\n"), DebianPackage},
		{"pkg.rpm", []byte{0xED, 0xAB, 0xEE, 0xDB, 0x03, 0x00, 0x00, 0x00}, RPMPackage},
		{"libm.a", []byte("!<arch>\ne_acos.o/       1342904844  0     0     100644  3536      `\n"), ArArchiveLibrary},
		{"pilot.prc", []byte("LIBRPalmOS\x00\x02data"), PalmOSLibrary},
		{"stdlib.cma", []byte("Caml1999X028\x84\x95\xA6"), OCamlLibrary},

		{"main.c", []byte("/* entry point */\n#include \"app.h\"\nint main(void) { return 0; }\n"), CSource},
		{"vec.cpp", []byte("#include <vector>\ntemplate <class T> T sq(T x) { return x*x; }\n"), CppSource},
		{"app.h", []byte("#pragma once\nextern int version;\n"), CHeader},
		{"Carp.pm", []byte("package Carp;\nour $VERSION = '1.42';\n1;\n"), Perl5Module},
		{"set.rb", []byte("# frozen\nmodule SetLike\n  def union(o); end\nend\n"), RubyModule},
		{"calc.pas", []byte("program Calc;\nbegin\n  writeln(2+2);\nend.\n"), PascalSource},
		{"sub.f90", []byte("      SUBROUTINE DAXPY(N,DA,DX)\n      RETURN\n      END\n"), FortranSource},
		{"game.bas", []byte("10 PRINT \"HI\"\n20 END\n"), ApplesoftBasic},
		{"init.scm", []byte("(define (fact n) (if (< n 2) 1 (* n (fact (- n 1)))))\n"), LispScheme},

		{"manage", []byte("#!/usr/bin/env python\nimport django\n"), PythonScript},
		{"postinst", []byte("#!/bin/sh\nset -e\nldconfig\n"), ShellScript},
		{"rake", []byte("#!/usr/bin/env ruby\nrequire 'rake'\n"), RubyScript},
		{"cpanm", []byte("#!/usr/bin/perl\nuse 5.008001;\n"), PerlScript},
		{"index.php", []byte("<?php\necho \"hello\";\n"), PHPScript},
		{"sum.awk", []byte("#!/usr/bin/awk -f\n{ s += $1 } END { print s }\n"), AwkScript},
		{"Makefile", []byte("CC=gcc\nall: prog\n\tgcc -o prog main.c\n"), MakefileScript},
		{"aclocal.m4", []byte("dnl generated\ndefine(`AC_INIT', `...')dnl\n"), M4Macro},
		{"server.js", []byte("#!/usr/bin/env node\nconst http = require('http');\n"), NodeScript},
		{"gui.tcl", []byte("#!/usr/bin/tclsh\nputs {hello}\n"), TclScript},

		{"README", []byte("Installation\n============\nRun make install.\n"), ASCIIText},
		{"NOTES", []byte("r\xC3\xA9sum\xC3\xA9 of caf\xC3\xA9 culture\n"), UTF8Text},
		{"doc.txt", []byte{0xFF, 0xFE, 'd', 0, 'o', 0, 'c', 0}, UTF16Text},
		{"menu.txt", []byte("sp\xE9cialit\xE9 du caf\xE9\n"), ISO8859Text},
		{"index.html", []byte("<!DOCTYPE html>\n<html lang=\"en\"><body>hi</body></html>\n"), HTMLDoc},
		{"pom.xml", []byte("<?xml version=\"1.0\"?>\n<project><version>1</version></project>\n"), XMLDoc},
		{"paper.pdf", []byte("%PDF-1.5\n%\xB5\xB5\xB5\n1 0 obj\n"), PDFDoc},
		{"fig.ps", []byte("%!PS-Adobe-3.0 EPSF-3.0\n%%BoundingBox: 0 0 100 100\n"), PostScriptDoc},
		{"paper.tex", []byte("\\documentclass[10pt]{article}\n\\begin{document}\nhi\n"), LaTeXDoc},

		{"data.tar.gz", []byte{0x1F, 0x8B, 0x08, 0x08, 0xAA, 0xBB, 0xCC, 0xDD, 0x00, 0x03}, GzipArchive},
		{"app.jar", []byte("PK\x03\x04\x14\x00\x08\x08"), ZipArchive},
		{"src.tar.bz2", []byte("BZh91AY&SY\x12\x34"), Bzip2Archive},
		{"kernel.tar.xz", []byte{0xFD, '7', 'z', 'X', 'Z', 0x00, 0x00, 0x04}, XZArchive},
		{"backup.tar", tarBytes, TarArchive},
		{"initrd.cpio", []byte("070701003A4B2C"), CpioArchive},

		{"logo.png", []byte{0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A, 0, 0, 0, 13}, PNGImage},
		{"photo.jpg", []byte{0xFF, 0xD8, 0xFF, 0xE1, 0x1C, 0x45, 'E', 'x', 'i', 'f'}, JPEGImage},
		{"anim.gif", []byte("GIF89a\x40\x01\xF0\x00"), GIFImage},
		{"icon.svg", []byte("<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"24\"></svg>\n"), SVGImage},
		{"img.bmp", append([]byte("BM\x36\x10\x0E\x00"), make([]byte, 30)...), BMPImage},
		{"scan.tiff", []byte("II*\x00\x10\x00\x00\x00"), TIFFImage},
		{"favicon.ico", []byte{0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x10}, ICOImage},

		{"app.db", []byte("SQLite format 3\x00\x10\x00\x01\x01"), SQLiteDB},
		{"aliases.db", bdb, BerkeleyDB},
		{"users.MYI", []byte{0xFE, 0xFE, 0x07, 0x01, 0x00, 0x03}, MySQLMyISAM},
		{"users.frm", []byte{0xFE, 0x01, 0x0A, 0x0C, 0x12, 0x00}, MySQLFrm},

		{"clip.avi", []byte("RIFF\x24\xE8\x03\x00AVI LIST"), AVIVideo},
		{"movie.mpg", []byte{0x00, 0x00, 0x01, 0xBA, 0x44, 0x00}, MPEGVideo},
		{"clip.mp4", []byte{0x00, 0x00, 0x00, 0x20, 'f', 't', 'y', 'p', 'i', 's', 'o', 'm'}, MP4Video},
		{"beep.wav", []byte("RIFF\x24\x00\x00\x00WAVEfmt "), WAVAudio},
		{"sound.ogg", []byte("OggS\x00\x02\x00\x00\x00\x00"), OggMedia},

		{"__init__.py", []byte{}, EmptyFile},
		{"package.json", []byte("{\"name\": \"app\", \"version\": \"1.0.0\"}\n"), JSONData},
		{"core.bin", []byte{0xDE, 0xAD, 0x00, 0x01, 0x88, 0x99, 0x00, 0xFF}, BinaryData},
	}

	covered := map[Type]bool{}
	for _, c := range cases {
		got := Classify(c.name, c.content)
		if got != c.want {
			t.Errorf("Classify(%s) = %s, want %s", c.name, got, c.want)
		}
		covered[c.want] = true
	}
	for _, ft := range NamedTypeList() {
		if !covered[ft] {
			t.Errorf("named type %s has no handcrafted classification case", ft)
		}
	}
}

// TestClassifyPrefersContentOverName: magic numbers beat extensions.
func TestClassifyPrefersContentOverName(t *testing.T) {
	elfBytes := make([]byte, 64)
	copy(elfBytes, []byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0})
	binary.LittleEndian.PutUint16(elfBytes[16:18], 3)
	if got := Classify("misleading.txt", elfBytes); got != ElfSharedObject {
		t.Fatalf("ELF named .txt classified as %s", got)
	}
	png := []byte{0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A, 1, 2, 3}
	if got := Classify("image.c", png); got != PNGImage {
		t.Fatalf("PNG named .c classified as %s", got)
	}
}

// TestClassifySniffWindowBounded: classification must not read unbounded
// content — a huge file classifies from its prefix.
func TestClassifySniffWindowBounded(t *testing.T) {
	big := append([]byte("plain text start\n"), bytes.Repeat([]byte("word "), 1_000_000)...)
	if got := Classify("big.txt", big); got != ASCIIText {
		t.Fatalf("huge text file classified as %s", got)
	}
}

// TestHTMLMarkerMatchesLowercasedPrefix pins hasHTMLMarker to the function
// it replaced — lower-case the whole sniffed prefix, then compare — on the
// inputs where an ASCII-only fold could disagree with a Unicode one.
func TestHTMLMarkerMatchesLowercasedPrefix(t *testing.T) {
	old := func(b []byte) bool {
		lower := bytes.ToLower(b)
		return bytes.HasPrefix(lower, []byte("<!doctype html")) ||
			bytes.HasPrefix(lower, []byte("<html"))
	}
	long := append([]byte("<HtMl lang=\"en\">"), bytes.Repeat([]byte("Ünïcode body \xff "), 200)...)
	cases := []struct {
		name string
		in   []byte
		want bool
	}{
		{"lower doctype", []byte("<!doctype html>\n<html>"), true},
		{"upper doctype", []byte("<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.01//EN\">"), true},
		{"mixed doctype", []byte("<!DocType Html>"), true},
		{"lower html", []byte("<html><body>"), true},
		{"mixed html", []byte("<hTmL>"), true},
		{"exactly the marker", []byte("<HTML"), true},
		{"long mixed with non-ASCII after", long, true},
		{"invalid UTF-8 after the marker", []byte("<html\xff\xfe>"), true},
		{"empty", nil, false},
		{"short", []byte("<htm"), false},
		{"short doctype", []byte("<!doctype htm"), false},
		{"other doctype", []byte("<!doctype svg>"), false},
		{"not markup", []byte("hello <html>"), false},
		{"invalid UTF-8 before the marker", []byte("\xff<html>"), false},
		{"invalid UTF-8 inside the marker", []byte("<ht\xffml>"), false},
		{"non-ASCII before the marker", []byte("é<html>"), false},
		{"kelvin sign folds to ASCII k", []byte("<!doctype htmlK"), true},
		{"dotted capital I folds to ASCII i", []byte("<İhtml>"), false},
		{"fullwidth letters", []byte("<ｈｔｍｌ>"), false},
	}
	for _, c := range cases {
		if got := hasHTMLMarker(c.in); got != c.want {
			t.Errorf("%s: hasHTMLMarker = %v, want %v", c.name, got, c.want)
		}
		if got, ref := hasHTMLMarker(c.in), old(c.in); got != ref {
			t.Errorf("%s: hasHTMLMarker = %v, lower-cased prefix compare = %v", c.name, got, ref)
		}
	}
}
