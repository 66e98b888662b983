// Package filetype implements the paper's three-level file-type taxonomy
// (§IV-C, Figure 13) and the magic-number based classifier used to build it.
//
// Level 1 splits types into commonly and non-commonly used based on total
// capacity; level 2 groups common types into EOL (executables, object code,
// libraries), source code, scripts, documents, archival, image data,
// databases, media and others; level 3 is the concrete type (ELF shared
// object, Python bytecode, gzip archive, …).
//
// The package also generates synthetic file content for every type: bytes
// that carry the correct magic number (so the classifier round-trips) and a
// controllable entropy level (so gzip compression ratios of materialized
// layers can be calibrated). Types the paper observed via file(1) quirks
// (e.g. "Palm OS dynamic library") use documented synthetic magics.
package filetype

import (
	"cmp"
	"fmt"
	"slices"
)

// Group is the level-2 taxonomy category.
type Group uint8

// Level-2 groups, in the order the paper presents them (Figure 14).
const (
	GroupEOL Group = iota
	GroupSourceCode
	GroupScripts
	GroupDocuments
	GroupArchival
	GroupImageData
	GroupDatabases
	GroupMedia
	GroupOther
)

var groupNames = [...]string{
	"EOL", "SC.", "Scr.", "Doc.", "Arch.", "Img.", "DB.", "Media", "Oths",
}

// String returns the paper's abbreviation for the group.
func (g Group) String() string {
	if int(g) < len(groupNames) {
		return groupNames[g]
	}
	return fmt.Sprintf("Group(%d)", g)
}

// Type identifies a concrete level-3 file type. Values below NamedTypes are
// the named types enumerated in this file; values ≥ NamedTypes are the
// synthetic "uncommon" tail (UncommonType) that models the ~1,500 rarely
// seen types the paper found.
type Type uint16

// Named types. The groupings and families mirror Figures 16–22.
const (
	// EOL — executables, object code and libraries.
	ElfExecutable Type = iota
	ElfSharedObject
	ElfRelocatable
	PythonBytecode
	JavaClass
	TerminfoCompiled
	MicrosoftPE
	COFFObject
	MachO
	DebianPackage
	RPMPackage
	ArArchiveLibrary
	PalmOSLibrary
	OCamlLibrary

	// Source code.
	CSource
	CppSource
	CHeader
	Perl5Module
	RubyModule
	PascalSource
	FortranSource
	ApplesoftBasic
	LispScheme

	// Scripts.
	PythonScript
	ShellScript
	RubyScript
	PerlScript
	PHPScript
	AwkScript
	MakefileScript
	M4Macro
	NodeScript
	TclScript

	// Documents.
	ASCIIText
	UTF8Text
	UTF16Text
	ISO8859Text
	HTMLDoc
	XMLDoc
	PDFDoc
	PostScriptDoc
	LaTeXDoc

	// Archival.
	GzipArchive
	ZipArchive
	Bzip2Archive
	XZArchive
	TarArchive
	CpioArchive

	// Image data.
	PNGImage
	JPEGImage
	GIFImage
	SVGImage
	BMPImage
	TIFFImage
	ICOImage

	// Databases.
	SQLiteDB
	BerkeleyDB
	MySQLMyISAM
	MySQLFrm

	// Media.
	AVIVideo
	MPEGVideo
	MP4Video
	WAVAudio
	OggMedia

	// Other.
	EmptyFile
	JSONData
	BinaryData

	// NamedTypes is the number of named types; it is also the first
	// uncommon type value.
	NamedTypes
)

// typeInfo is the static description of a named type.
type typeInfo struct {
	name   string
	group  Group
	family string // level-3 sub-family used in Figures 16–22
}

var typeTable = [NamedTypes]typeInfo{
	ElfExecutable:    {"ELF executable", GroupEOL, "ELF"},
	ElfSharedObject:  {"ELF shared object", GroupEOL, "ELF"},
	ElfRelocatable:   {"ELF relocatable", GroupEOL, "ELF"},
	PythonBytecode:   {"Python byte-compiled", GroupEOL, "Com."},
	JavaClass:        {"Java class", GroupEOL, "Com."},
	TerminfoCompiled: {"terminfo compiled", GroupEOL, "Com."},
	MicrosoftPE:      {"Microsoft PE executable", GroupEOL, "PE"},
	COFFObject:       {"COFF object", GroupEOL, "COFF"},
	MachO:            {"Mach-O", GroupEOL, "Mach-O"},
	DebianPackage:    {"Debian binary package", GroupEOL, "Pkg"},
	RPMPackage:       {"RPM package", GroupEOL, "Pkg"},
	ArArchiveLibrary: {"ar static library", GroupEOL, "Lib"},
	PalmOSLibrary:    {"Palm OS dynamic library", GroupEOL, "Lib"},
	OCamlLibrary:     {"OCaml library", GroupEOL, "Lib"},

	CSource:        {"C source", GroupSourceCode, "C/C++"},
	CppSource:      {"C++ source", GroupSourceCode, "C/C++"},
	CHeader:        {"C header", GroupSourceCode, "C/C++"},
	Perl5Module:    {"Perl5 module", GroupSourceCode, "Perl5"},
	RubyModule:     {"Ruby module", GroupSourceCode, "Ruby"},
	PascalSource:   {"Pascal source", GroupSourceCode, "Pascal"},
	FortranSource:  {"Fortran source", GroupSourceCode, "Fortran"},
	ApplesoftBasic: {"Applesoft BASIC", GroupSourceCode, "Basic"},
	LispScheme:     {"Lisp/Scheme source", GroupSourceCode, "Lisp"},

	PythonScript:   {"Python script", GroupScripts, "Python"},
	ShellScript:    {"Bash/shell script", GroupScripts, "Shell"},
	RubyScript:     {"Ruby script", GroupScripts, "Ruby"},
	PerlScript:     {"Perl script", GroupScripts, "Perl"},
	PHPScript:      {"PHP script", GroupScripts, "PHP"},
	AwkScript:      {"AWK script", GroupScripts, "AWK"},
	MakefileScript: {"Makefile", GroupScripts, "Make"},
	M4Macro:        {"M4 macro", GroupScripts, "M4"},
	NodeScript:     {"Node.js script", GroupScripts, "Node"},
	TclScript:      {"Tcl script", GroupScripts, "Tcl"},

	ASCIIText:     {"ASCII text", GroupDocuments, "Text"},
	UTF8Text:      {"UTF-8 text", GroupDocuments, "Text"},
	UTF16Text:     {"UTF-16 text", GroupDocuments, "Text"},
	ISO8859Text:   {"ISO-8859 text", GroupDocuments, "Text"},
	HTMLDoc:       {"HTML document", GroupDocuments, "XML/HTML"},
	XMLDoc:        {"XML document", GroupDocuments, "XML/HTML"},
	PDFDoc:        {"PDF document", GroupDocuments, "PDF/PS"},
	PostScriptDoc: {"PostScript document", GroupDocuments, "PDF/PS"},
	LaTeXDoc:      {"LaTeX document", GroupDocuments, "LaTeX"},

	GzipArchive:  {"gzip archive", GroupArchival, "Zip/Gzip"},
	ZipArchive:   {"zip archive", GroupArchival, "Zip/Gzip"},
	Bzip2Archive: {"bzip2 archive", GroupArchival, "Bzip2"},
	XZArchive:    {"xz archive", GroupArchival, "XZ"},
	TarArchive:   {"tar archive", GroupArchival, "Tar"},
	CpioArchive:  {"cpio archive", GroupArchival, "Oths"},

	PNGImage:  {"PNG image", GroupImageData, "PNG"},
	JPEGImage: {"JPEG image", GroupImageData, "JPEG"},
	GIFImage:  {"GIF image", GroupImageData, "GIF"},
	SVGImage:  {"SVG image", GroupImageData, "SVG"},
	BMPImage:  {"BMP image", GroupImageData, "BMP"},
	TIFFImage: {"TIFF image", GroupImageData, "TIFF"},
	ICOImage:  {"ICO image", GroupImageData, "ICO"},

	SQLiteDB:    {"SQLite database", GroupDatabases, "SQLite"},
	BerkeleyDB:  {"Berkeley DB", GroupDatabases, "BerkeleyDB"},
	MySQLMyISAM: {"MySQL MyISAM table", GroupDatabases, "MySQL"},
	MySQLFrm:    {"MySQL table definition", GroupDatabases, "MySQL"},

	AVIVideo:  {"AVI video", GroupMedia, "AVI"},
	MPEGVideo: {"MPEG video", GroupMedia, "MPEG"},
	MP4Video:  {"MP4 video", GroupMedia, "MP4"},
	WAVAudio:  {"WAV audio", GroupMedia, "WAV"},
	OggMedia:  {"Ogg media", GroupMedia, "Ogg"},

	EmptyFile:  {"empty", GroupOther, "Empty"},
	JSONData:   {"JSON data", GroupOther, "JSON"},
	BinaryData: {"data", GroupOther, "Data"},
}

// MaxUncommon is the number of synthetic uncommon types available, chosen so
// the total type count (named + uncommon) is around the ~1,500 distinct
// types the paper reports.
const MaxUncommon = 1440

// UncommonType returns the i-th synthetic uncommon type (0 ≤ i < MaxUncommon).
func UncommonType(i int) Type {
	if i < 0 || i >= MaxUncommon {
		panic(fmt.Sprintf("filetype: uncommon index %d out of range", i))
	}
	return NamedTypes + Type(i)
}

// IsUncommon reports whether t is from the synthetic uncommon tail.
func (t Type) IsUncommon() bool { return t >= NamedTypes && t < NamedTypes+MaxUncommon }

// Name returns a human-readable type name.
func (t Type) Name() string {
	if t < NamedTypes {
		return typeTable[t].name
	}
	if t.IsUncommon() {
		return fmt.Sprintf("uncommon-%04d", int(t-NamedTypes))
	}
	return fmt.Sprintf("Type(%d)", uint16(t))
}

// Group returns the level-2 group of the type.
func (t Type) Group() Group {
	if t < NamedTypes {
		return typeTable[t].group
	}
	return GroupOther
}

// Family returns the level-3 sub-family (e.g. "ELF", "Com.", "Zip/Gzip")
// used when breaking groups down in Figures 16–22.
func (t Type) Family() string {
	if t < NamedTypes {
		return typeTable[t].family
	}
	if t.IsUncommon() {
		return "Uncommon"
	}
	return "Unknown"
}

// String implements fmt.Stringer.
func (t Type) String() string { return t.Name() }

// Taxonomy is the rendered level-1 split: which types are "commonly used"
// (individually large and collectively dominating capacity) versus the long
// tail, computed from observed per-type capacity exactly as §IV-C describes.
type Taxonomy struct {
	Common        []TypeUsage // sorted by capacity, descending
	Uncommon      []TypeUsage
	CommonShare   float64 // fraction of capacity held by common types
	TotalTypes    int
	TotalCapacity float64
}

// TypeUsage is the observed footprint of a single type.
type TypeUsage struct {
	Type     Type
	Count    int64
	Capacity float64
}

// BuildTaxonomy performs the level-1 classification. A type is "commonly
// used" when its individual capacity exceeds threshold (the paper used
// 7 GB on the full dataset; callers scale it with their dataset).
func BuildTaxonomy(usage []TypeUsage, threshold float64) Taxonomy {
	sorted := append([]TypeUsage(nil), usage...)
	slices.SortFunc(sorted, func(a, b TypeUsage) int {
		return cmp.Or(cmp.Compare(b.Capacity, a.Capacity), cmp.Compare(a.Type, b.Type))
	})
	tax := Taxonomy{TotalTypes: len(sorted)}
	var commonCap float64
	for _, u := range sorted {
		tax.TotalCapacity += u.Capacity
		if u.Capacity > threshold {
			tax.Common = append(tax.Common, u)
			commonCap += u.Capacity
		} else {
			tax.Uncommon = append(tax.Uncommon, u)
		}
	}
	if tax.TotalCapacity > 0 {
		tax.CommonShare = commonCap / tax.TotalCapacity
	}
	return tax
}
