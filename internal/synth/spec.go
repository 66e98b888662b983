// Package synth generates the synthetic Docker Hub dataset that substitutes
// for the paper's 167 TB crawl. The generator is calibrated against every
// number the paper reports (see DESIGN.md §5): entity counts scale linearly
// with Spec.Scale while distribution shapes — the reproduction target — are
// scale-free where the paper's are (medians, percentile knees, shares) and
// grow with dataset size where the paper's do (deduplication ratios,
// maximum repeat counts).
package synth

import (
	"repro/internal/filetype"
)

// Paper-reported full-scale totals (§III-B, §VII). These anchor the Scale
// parameter: Scale 1.0 reproduces the paper's entity counts exactly.
const (
	PaperRepos            = 457_627   // distinct repositories after crawl dedup
	PaperCrawlRawEntries  = 634_412   // search results before dedup
	PaperImagesDownloaded = 355_319   // images with accessible latest tag
	PaperImagesFailed     = 111_384   // images that could not be downloaded
	PaperLayers           = 1_792_609 // unique compressed layers
)

// PaperAuthFailFrac is the share of the paper's 111,384 failed downloads
// that required authentication (§III-B); the other 87% had no latest tag.
const PaperAuthFailFrac = 0.13

// Spec holds every calibration knob of the synthetic Hub. DefaultSpec
// returns the paper-calibrated instance; tests shrink Scale.
type Spec struct {
	// Seed makes the entire dataset reproducible.
	Seed int64
	// Scale multiplies the paper's entity counts. 1.0 is the full 2017
	// crawl (too large for memory: 5.3 B file instances); typical model
	// runs use 0.001–0.01.
	Scale float64

	// --- Crawl / download (§III) ---

	// CrawlDupFactor is the ratio of raw search entries to distinct
	// repositories (634,412 / 457,627) caused by Docker Hub indexing.
	CrawlDupFactor float64
	// AuthFailFrac is the share of download failures that are auth
	// failures; the rest are repositories without a latest tag.
	AuthFailFrac float64
	// FailFrac is the fraction of repositories whose image cannot be
	// downloaded (111,384 / 466,703 attempted ≈ the repo-level failure
	// rate; the paper's accounting works out to failed/(downloaded+failed)).
	FailFrac float64
	// OfficialFrac is the fraction of repositories that are official
	// (<200 / 457,627).
	OfficialFrac float64

	// --- Image structure (Fig. 10) ---

	// LayersPerImage* parameterize the per-image layer count: point mass
	// at 1 (7,060 single-layer images), body log-uniform with the mode
	// near 8, p90 ≈ 18, max 120.
	SingleLayerImageFrac float64
	LayerCountMode       int
	LayerCountP90        int
	LayerCountMax        int

	// --- Layer sharing (Fig. 23, §V-A) ---

	// ExclusiveLayerFrac is the fraction of layers referenced by exactly
	// one image (0.90), DuoLayerFrac by exactly two (0.05); the remainder
	// is the shared tail.
	ExclusiveLayerFrac float64
	DuoLayerFrac       float64
	// EmptyLayerImageFrac is the fraction of images that include the
	// famous empty layer (184,171 / 355,319).
	EmptyLayerImageFrac float64
	// TopSharedImageFrac is the per-layer image fraction for the next five
	// top-shared layers (29,200–33,413 / 355,319 ≈ 0.082–0.094).
	TopSharedImageFrac float64
	// SharedTailAlpha shapes the Pareto reference-count tail beyond refs=3.
	SharedTailAlpha float64

	// --- Files per layer (Figs. 5–7) and joint size structure
	// (Figs. 9, 11, 12) ---
	//
	// Images fall into small/medium/large size classes and exclusive
	// layers inherit their image's class, so file-heavy layers concentrate
	// in few images — without this coupling the per-image medians
	// (files, dirs, CIS/FIS) blow up an order of magnitude past the
	// paper's, because summing ~9 i.i.d. heavy-tailed layers almost
	// always catches the tail. The class ceilings trade a lower
	// files-per-layer p90 for image medians in the paper's range; both
	// land within ~3x (see EXPERIMENTS.md).

	EmptyLayerFrac      float64 // 7% of layers have no files
	SingleFileLayerFrac float64 // 27% have exactly one
	FilesPerLayerBodyLo float64 // body log-uniform lower bound
	FilesPerLayerP90    float64 // 7,410 — medium/large body ceiling
	FilesPerLayerAlpha  float64 // tail Pareto exponent above the ceiling
	FilesPerLayerMax    float64 // 826,196

	// ImageClassSmallFrac/LargeFrac partition images (medium is the
	// remainder); SmallLayerCeiling caps the small-class body;
	// ClassTailP are the per-class heavy-tail probabilities; shared
	// layers draw the large profile with SharedLayerLargeFrac (the
	// paper's Ubuntu-sized top-shared layers) and the small profile
	// otherwise.
	ImageClassSmallFrac  float64
	ImageClassLargeFrac  float64
	SmallLayerCeiling    float64
	ClassTailP           [3]float64 // small, medium, large
	SharedLayerLargeFrac float64

	DirsPerFileMedian float64 // files-per-directory ratio median (≈3)
	DirsPerFileP90    float64 // … and p90 (≈9)
	// DirsPerFileGamma grows the files-per-directory ratio with layer
	// size (ratio × (files/30)^gamma), matching Fig. 5 vs Fig. 6: p90
	// layers have ~9 files/dir while median layers have ~3.
	DirsPerFileGamma float64
	DirCountMax      float64 // 111,940
	// DepthWeights is the discrete max-directory-depth distribution
	// (index = depth-1); Fig. 7 has mode 3, p50 < 4, p90 < 10.
	DepthWeights []float64

	// --- Compression (Fig. 4) ---

	CompressionMedian float64 // 2.6
	CompressionP90    float64 // 4.0
	CompressionMax    float64 // 1026

	// --- File universe (Figs. 13–22, 24) ---

	// RepeatMasses are the point masses of the per-unique-file repeat
	// count (value, weight): P(1)=0.006, P(4)=0.50, …
	RepeatMasses []RepeatMass
	// RepeatTailXm/Alpha shape the Pareto repeat tail; the cap is
	// MaxRepeatFrac of total file instances (the empty file's 53.6 M
	// repeats ≈ 1% of 5.28 B).
	RepeatTailXm    float64
	RepeatTailAlpha float64
	MaxRepeatFrac   float64
	// GroupRepeatBoost scales each type group's probability of drawing
	// from the heavy repeat tail (instead of the point masses), which
	// reproduces the per-group dedup ordering of Fig. 27 (scripts ≈ 98% >
	// source ≈ 96.8% > docs ≈ 92% > EOL/archival/images ≈ 86% > DB ≈
	// 76%). Boosts are normalized so the global tail weight is unchanged.
	GroupRepeatBoost map[filetype.Group]float64
	// GroupSizeBeta anticorrelates file size with repeat count for tail
	// draws (size × (Xm/repeat)^beta), per group: heavily repeated files
	// are small (licenses, .npmignore, postinst scripts, empty files), so
	// the capacity dedup ratio (6.9×) lands far below the count ratio
	// (31.5×) while each group hits its Fig. 27 capacity-dedup band.
	GroupSizeBeta map[filetype.Group]float64

	// TypeMix defines the per-type count weights and mean sizes
	// (Figs. 14–22); see DefaultTypeMix.
	TypeMix []TypeWeight
	// UncommonTypeCount sizes the long tail of rare types (≈1,440
	// types, which hold 1.6% of capacity in the paper);
	// UncommonCountFrac is their share of the file-count universe and
	// UncommonZipfS skews capacity across them so a handful cross the
	// "commonly used" threshold the way Fig. 13's 133 common types do.
	UncommonTypeCount int
	UncommonCountFrac float64
	UncommonMeanSize  float64
	UncommonSizeSigma float64
	UncommonZipfS     float64

	// --- Popularity (Fig. 8) ---

	PullMedian float64 // 40
	PullP90    float64 // 333
	// PullBumpValue/Frac model the second peak at a pull count of 37.
	PullBumpValue float64
	PullBumpFrac  float64
	// PullTailFrac of repositories draw from a Pareto tail; TopPulls are
	// assigned verbatim to the first official repositories.
	PullTailFrac  float64
	PullTailAlpha float64
	TopPulls      []TopRepo
}

// RepeatMass is one point mass of the repeat-count distribution.
type RepeatMass struct {
	Repeat int64
	Weight float64
}

// TopRepo pins a named repository to a pull count (the paper's top-5 list).
type TopRepo struct {
	Name  string
	Pulls int64
}

// TypeWeight gives one file type's share of the unique-file universe and
// its log-normal size parameters (MeanSize is the distribution mean;
// SizeSigma the log-space sigma).
//
// CountWeight governs *unique-file* draws; because groups differ in mean
// repeat count, the instance-weighted shares reported in Fig. 14 are
// CountWeight × meanRepeat(group)-shaped — DefaultTypeMix pre-divides the
// paper's instance shares by the group repeat boosts.
//
// TailScale (default 1) multiplies the group's heavy-tail repeat
// probability for this type, and LowRepeat (default 0) forces repeat = 1
// with the given probability — together they reproduce the per-type dedup
// outliers of Figs. 28–29 (libraries 53.5%, COFF 61%, Lisp lowest).
type TypeWeight struct {
	Type        filetype.Type
	CountWeight float64
	MeanSize    float64
	SizeSigma   float64
	TailScale   float64
	LowRepeat   float64
}

// DefaultSpec returns the paper-calibrated specification at the given
// scale.
func DefaultSpec(scale float64) Spec {
	return Spec{
		Seed:  20170530, // the crawl date
		Scale: scale,

		CrawlDupFactor: float64(PaperCrawlRawEntries) / float64(PaperRepos),
		AuthFailFrac:   PaperAuthFailFrac,
		FailFrac:       float64(PaperImagesFailed) / float64(PaperImagesDownloaded+PaperImagesFailed),
		OfficialFrac:   190.0 / float64(PaperRepos),

		SingleLayerImageFrac: 7_060.0 / float64(PaperImagesDownloaded),
		LayerCountMode:       8,
		LayerCountP90:        18,
		LayerCountMax:        120,

		ExclusiveLayerFrac:  0.90,
		DuoLayerFrac:        0.05,
		EmptyLayerImageFrac: 184_171.0 / float64(PaperImagesDownloaded),
		TopSharedImageFrac:  0.088,
		SharedTailAlpha:     1.15,

		EmptyLayerFrac:      0.07,
		SingleFileLayerFrac: 0.27,
		FilesPerLayerBodyLo: 3,
		FilesPerLayerP90:    7_410,
		FilesPerLayerAlpha:  1.25,
		FilesPerLayerMax:    826_196,

		ImageClassSmallFrac:  0.70,
		ImageClassLargeFrac:  0.10,
		SmallLayerCeiling:    2_500,
		ClassTailP:           [3]float64{0.008, 0.18, 0.50},
		SharedLayerLargeFrac: 0.12,

		DirsPerFileMedian: 3,
		DirsPerFileP90:    9,
		DirsPerFileGamma:  0.12,
		DirCountMax:       111_940,
		DepthWeights: []float64{
			// depth:  1     2     3     4     5     6     7     8     9    10    11    12
			0.10, 0.15, 0.25, 0.15, 0.10, 0.07, 0.06, 0.04, 0.03, 0.02, 0.015, 0.015,
		},

		CompressionMedian: 2.6,
		CompressionP90:    4.0,
		CompressionMax:    1026,

		RepeatMasses: []RepeatMass{
			{Repeat: 1, Weight: 0.006},
			{Repeat: 2, Weight: 0.09},
			{Repeat: 3, Weight: 0.11},
			{Repeat: 4, Weight: 0.50},
			{Repeat: 5, Weight: 0.07},
			{Repeat: 6, Weight: 0.05},
			{Repeat: 7, Weight: 0.035},
			{Repeat: 8, Weight: 0.025},
			{Repeat: 9, Weight: 0.015},
			{Repeat: 10, Weight: 0.005},
		},
		RepeatTailXm:    11,
		RepeatTailAlpha: 1.039,
		MaxRepeatFrac:   0.0102, // 53,654,306 / 5,278,465,130
		GroupRepeatBoost: map[filetype.Group]float64{
			filetype.GroupScripts:    3.0,
			filetype.GroupSourceCode: 2.2,
			filetype.GroupDocuments:  1.2,
			filetype.GroupEOL:        0.85,
			filetype.GroupArchival:   0.85,
			filetype.GroupImageData:  0.85,
			filetype.GroupDatabases:  0.45,
			filetype.GroupMedia:      0.85,
			filetype.GroupOther:      1.0,
		},
		GroupSizeBeta: map[filetype.Group]float64{
			filetype.GroupScripts:    0.05,
			filetype.GroupSourceCode: 0.08,
			filetype.GroupDocuments:  0.15,
			filetype.GroupEOL:        0.28,
			filetype.GroupArchival:   0.28,
			filetype.GroupImageData:  0.28,
			filetype.GroupDatabases:  0.50,
			filetype.GroupMedia:      0.30,
			filetype.GroupOther:      0.25,
		},

		TypeMix:           DefaultTypeMix(),
		UncommonTypeCount: filetype.MaxUncommon,
		UncommonCountFrac: 0.01,
		UncommonMeanSize:  50 * 1024,
		UncommonSizeSigma: 2.0,
		UncommonZipfS:     0.9,

		PullMedian:    40,
		PullP90:       333,
		PullBumpValue: 37,
		PullBumpFrac:  0.10,
		PullTailFrac:  0.03,
		PullTailAlpha: 0.75,
		TopPulls: []TopRepo{
			{Name: "nginx", Pulls: 650_000_000},
			{Name: "google/cadvisor", Pulls: 434_000_000},
			{Name: "redis", Pulls: 264_000_000},
			{Name: "gliderlabs/registrator", Pulls: 212_000_000},
			{Name: "ubuntu", Pulls: 28_000_000},
		},
	}
}

// DefaultTypeMix encodes Figures 14–22: per-group count shares split across
// concrete types, with per-type mean sizes chosen so capacity shares land
// near the paper's (EOL 37%, archival 23%, documents 14%, …; ELF mean
// 312 KB, intermediate representations 9 KB, databases 978.8 KB, zip/gzip
// 67 KB, bzip2 199 KB, tar 466 KB, xz 534 KB, …).
func DefaultTypeMix() []TypeWeight {
	const kb = 1024.0
	w := func(t filetype.Type, count, meanKB, sigma float64) TypeWeight {
		return TypeWeight{Type: t, CountWeight: count, MeanSize: meanKB * kb, SizeSigma: sigma}
	}
	// Group unique-draw shares: the paper's instance-count shares divided
	// by the group repeat boosts so the *instance*-weighted shares land on
	// Fig. 14 (docs 44%, SC 13%, EOL 11%, scripts 9%, images 4%).
	const (
		docW   = 0.45
		scW    = 0.085
		eolW   = 0.135
		scrW   = 0.050
		archW  = 0.101
		imgW   = 0.058
		dbW    = 0.0136
		mediaW = 0.0008
	)
	mix := []TypeWeight{
		// --- Documents: ASCII 80% of docs, XML/HTML 13% (18% of doc
		// capacity).
		w(filetype.ASCIIText, docW*0.80, 10, 1.6),
		w(filetype.UTF8Text, docW*0.05, 9, 1.6),
		w(filetype.ISO8859Text, docW*0.004, 9, 1.6),
		w(filetype.UTF16Text, docW*0.003, 12, 1.6),
		w(filetype.HTMLDoc, docW*0.09, 13, 1.5),
		w(filetype.XMLDoc, docW*0.04, 14, 1.5),
		w(filetype.PDFDoc, docW*0.006, 120, 1.8),
		w(filetype.PostScriptDoc, docW*0.004, 90, 1.8),
		w(filetype.LaTeXDoc, docW*0.003, 20, 1.5),

		// --- Source code: C/C++ 80.3% of sources (≈80% of SC capacity),
		// Perl 9% (11% cap), Ruby 8% (3% cap).
		w(filetype.CSource, scW*0.45, 12, 1.5),
		w(filetype.CppSource, scW*0.20, 12, 1.5),
		w(filetype.CHeader, scW*0.153, 11, 1.5),
		w(filetype.Perl5Module, scW*0.09, 15, 1.5),
		w(filetype.RubyModule, scW*0.08, 4.5, 1.4),
		w(filetype.PascalSource, scW*0.008, 10, 1.5),
		w(filetype.FortranSource, scW*0.007, 10, 1.5),
		w(filetype.ApplesoftBasic, scW*0.005, 6, 1.4),
		w(filetype.LispScheme, scW*0.007, 9, 1.5),

		// --- EOL: IR 64% of EOL count, ELF 30% of count but 84% of EOL
		// capacity (instance means 312 KB vs 9 KB; unique-file means are
		// set higher because heavily repeated tail files shrink).
		w(filetype.ElfSharedObject, eolW*0.17, 550, 1.9),
		w(filetype.ElfExecutable, eolW*0.08, 550, 1.9),
		w(filetype.ElfRelocatable, eolW*0.05, 550, 1.9),
		w(filetype.PythonBytecode, eolW*0.50, 16, 1.2),
		w(filetype.JavaClass, eolW*0.10, 16, 1.2),
		w(filetype.TerminfoCompiled, eolW*0.04, 2, 0.8),
		w(filetype.MicrosoftPE, eolW*0.02, 250, 1.8),
		w(filetype.COFFObject, eolW*0.008, 80, 1.6),
		w(filetype.MachO, eolW*0.0001, 200, 1.8),
		w(filetype.DebianPackage, eolW*0.006, 250, 1.8),
		w(filetype.RPMPackage, eolW*0.004, 250, 1.8),
		w(filetype.ArArchiveLibrary, eolW*0.015, 140, 1.7),
		w(filetype.PalmOSLibrary, eolW*0.004, 60, 1.5),
		w(filetype.OCamlLibrary, eolW*0.003, 90, 1.5),

		// --- Scripts: Python 53.5% of scripts (66% of script capacity),
		// shell 20% (6%), Ruby 10% (5%).
		w(filetype.PythonScript, scrW*0.535, 14, 1.4),
		w(filetype.ShellScript, scrW*0.20, 3.5, 1.3),
		w(filetype.RubyScript, scrW*0.10, 5.5, 1.3),
		w(filetype.PerlScript, scrW*0.05, 10, 1.4),
		w(filetype.PHPScript, scrW*0.04, 9, 1.4),
		w(filetype.AwkScript, scrW*0.01, 4, 1.2),
		w(filetype.MakefileScript, scrW*0.03, 5, 1.3),
		w(filetype.M4Macro, scrW*0.01, 9, 1.3),
		w(filetype.NodeScript, scrW*0.02, 11, 1.5),
		w(filetype.TclScript, scrW*0.005, 6, 1.3),

		// --- Archival: zip/gzip 96.3% of archives (70% of archive
		// capacity), instance means 67/199/466/534 KB.
		w(filetype.GzipArchive, archW*0.763, 118, 1.7),
		w(filetype.ZipArchive, archW*0.20, 118, 1.7),
		w(filetype.Bzip2Archive, archW*0.012, 240, 1.7),
		w(filetype.XZArchive, archW*0.008, 640, 1.7),
		w(filetype.TarArchive, archW*0.012, 650, 1.7),
		w(filetype.CpioArchive, archW*0.005, 300, 1.7),

		// --- Image data: PNG 67% of images (45% of image capacity),
		// JPEG ≈20% of capacity.
		w(filetype.PNGImage, imgW*0.67, 16, 1.6),
		w(filetype.JPEGImage, imgW*0.15, 30, 1.6),
		w(filetype.GIFImage, imgW*0.08, 18, 1.5),
		w(filetype.SVGImage, imgW*0.06, 9, 1.4),
		w(filetype.BMPImage, imgW*0.015, 90, 1.6),
		w(filetype.TIFFImage, imgW*0.015, 120, 1.6),
		w(filetype.ICOImage, imgW*0.01, 12, 1.2),

		// --- Databases: Berkeley DB 33% / MySQL 30% of DB count, SQLite
		// 7% of count but 57% of DB capacity; mean 978.8 KB overall.
		w(filetype.BerkeleyDB, dbW*0.33, 540, 1.6),
		w(filetype.MySQLMyISAM, dbW*0.20, 600, 1.6),
		w(filetype.MySQLFrm, dbW*0.10, 60, 1.0),
		w(filetype.SQLiteDB, dbW*0.07, 7_500, 1.8),

		// --- Media: "a small amount of video files like AVI, MPEG".
		w(filetype.AVIVideo, mediaW*0.3, 2_000, 1.8),
		w(filetype.MPEGVideo, mediaW*0.25, 2_000, 1.8),
		w(filetype.MP4Video, mediaW*0.25, 2_500, 1.8),
		w(filetype.WAVAudio, mediaW*0.1, 800, 1.6),
		w(filetype.OggMedia, mediaW*0.1, 900, 1.6),

		// --- Other: empty files (the max-repeat file is empty; ~4% of
		// empty files are __init__.py), JSON, and unidentifiable data.
		w(filetype.EmptyFile, 0.02, 0, 0),
		w(filetype.JSONData, 0.03, 6, 1.4),
		w(filetype.BinaryData, 0.06, 40, 2.0),
	}
	// Per-type repeat overrides reproducing the Fig. 28–29 outliers:
	// libraries dedup only 53.5%, COFF 61%, Lisp/Scheme is the lowest
	// language — these types repeat far less than their groups.
	overrides := map[filetype.Type]TypeWeight{
		filetype.ArArchiveLibrary: {TailScale: 0.2, LowRepeat: 0.62},
		filetype.PalmOSLibrary:    {TailScale: 0.2, LowRepeat: 0.62},
		filetype.OCamlLibrary:     {TailScale: 0.2, LowRepeat: 0.62},
		filetype.COFFObject:       {TailScale: 0.25, LowRepeat: 0.50},
		filetype.LispScheme:       {TailScale: 0.30, LowRepeat: 0.15},
	}
	for i := range mix {
		if o, ok := overrides[mix[i].Type]; ok {
			mix[i].TailScale = o.TailScale
			mix[i].LowRepeat = o.LowRepeat
		}
	}
	return mix
}

// MaterializeSpec returns a spec sized for end-to-end materialized runs:
// the sharing, popularity and failure structure of DefaultSpec, but with
// per-layer file counts and file sizes shrunk so real tarballs for the
// whole dataset fit comfortably in memory. Distribution *shapes* at this
// preset are for exercising the wire pipeline, not for reproducing the
// paper's absolute numbers — use DefaultSpec in model mode for that.
func MaterializeSpec(scale float64) Spec {
	s := DefaultSpec(scale)
	s.FilesPerLayerBodyLo = 2
	s.FilesPerLayerP90 = 40
	s.FilesPerLayerAlpha = 2.5
	s.FilesPerLayerMax = 200
	s.SmallLayerCeiling = 15
	s.DirsPerFileMedian = 2
	s.DirsPerFileP90 = 5
	for i := range s.TypeMix {
		s.TypeMix[i].MeanSize = s.TypeMix[i].MeanSize/256 + 64
		if s.TypeMix[i].SizeSigma > 1.0 {
			s.TypeMix[i].SizeSigma = 1.0
		}
	}
	s.UncommonMeanSize = s.UncommonMeanSize/256 + 64
	s.UncommonSizeSigma = 1.0
	return s
}

// DedupSweepSpec returns a spec for storage-backend benchmarks: the same
// structure as MaterializeSpec but with file sizes shrunk 8x from the
// paper's (not 256x), so mean file size lands in the single-digit-KB
// range. MaterializeSpec's ~200 B files are fine for exercising the wire
// pipeline, but at that size per-file recipe metadata (~70 B) eats the
// dedup win and the measured savings say nothing about real layers;
// at kilobyte files the metadata overhead drops to a few percent, the
// regime real registries (31.6 KB mean, §V-A) live in.
func DedupSweepSpec(scale float64) Spec {
	s := MaterializeSpec(scale)
	for i := range s.TypeMix {
		s.TypeMix[i].MeanSize = DefaultSpec(scale).TypeMix[i].MeanSize/8 + 64
	}
	s.UncommonMeanSize = DefaultSpec(scale).UncommonMeanSize/8 + 64
	return s
}

// Counts derives the entity counts implied by the spec's scale.
type Counts struct {
	Repos        int
	ImagesFailed int
	AuthFailures int
}

// Counts returns the scaled entity counts.
func (s Spec) Counts() Counts {
	repos := scaleInt(PaperRepos, s.Scale, 10)
	attempted := repos // one latest-tag image attempt per repository
	failed := int(float64(attempted)*s.FailFrac + 0.5)
	if failed >= attempted {
		failed = attempted - 1
	}
	auth := int(float64(failed)*s.AuthFailFrac + 0.5)
	return Counts{
		Repos:        repos,
		ImagesFailed: failed,
		AuthFailures: auth,
	}
}

func scaleInt(full int, scale float64, min int) int {
	n := int(float64(full)*scale + 0.5)
	if n < min {
		n = min
	}
	return n
}
