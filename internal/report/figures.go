package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/filetype"
	"repro/internal/popularity"
	"repro/internal/stats"
)

// All builds every figure in paper order. Figures whose inputs are absent
// (e.g. Fig. 25 without growth samples) are skipped.
func All(src *Source) []Figure {
	builders := []func(*Source) (Figure, bool){
		Methodology,
		Fig3, Fig4, Fig5, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12,
		Fig13, Fig14, Fig15, Fig16, Fig17, Fig18, Fig19, Fig20, Fig21, Fig22,
		Fig23, Fig24, Fig25, Fig26, Fig27, Fig28, Fig29,
	}
	var out []Figure
	for _, b := range builders {
		if f, ok := b(src); ok {
			out = append(out, f)
		}
	}
	return out
}

const mb = 1024 * 1024

// Methodology reports the §III crawl/download accounting.
func Methodology(src *Source) (Figure, bool) {
	if src.Crawl == nil || src.Download == nil {
		return Figure{}, false
	}
	c, d := src.Crawl, src.Download
	failed := d.AuthFailures + d.NoLatest + d.OtherFailures
	var authFrac, noLatestFrac float64
	if failed > 0 {
		authFrac = float64(d.AuthFailures) / float64(failed)
		noLatestFrac = float64(d.NoLatest) / float64(failed)
	}
	body := fmt.Sprintf("  crawl: %d raw entries -> %d distinct repos (%d duplicates)\n"+
		"  download: %d attempted, %d downloaded, %d failed (%d auth, %d no-latest, %d other)\n"+
		"  transfer: %d unique layers, %d shared-layer fetches skipped, %s\n",
		c.RawEntries, len(c.Repos), c.Duplicates,
		d.Attempted, d.Downloaded, failed, d.AuthFailures, d.NoLatest, d.OtherFailures,
		d.UniqueLayers, d.SkippedLayers, FormatBytes(float64(d.Bytes)))
	return Figure{
		ID:    "tabM",
		Title: "methodology: crawl and download accounting (§III)",
		Body:  body,
		Metrics: []Metric{
			{Name: "crawl duplicate factor", Paper: 634412.0 / 457627.0, Measured: float64(c.RawEntries) / float64(len(c.Repos)-c.Officials), Unit: "x"},
			{Name: "download failure fraction", Paper: 111384.0 / 466703.0, Measured: float64(failed) / float64(d.Attempted), Unit: "%"},
			{Name: "auth share of failures", Paper: 0.13, Measured: authFrac, Unit: "%"},
			{Name: "no-latest share of failures", Paper: 0.87, Measured: noLatestFrac, Unit: "%"},
		},
	}, true
}

// Fig3 — layer size distribution (CLS and FLS).
func Fig3(src *Source) (Figure, bool) {
	cls, fls := &stats.CDF{}, &stats.CDF{}
	hist := stats.NewHistogram(stats.LinearBounds(128*mb, 26))
	for i := range src.Analysis.Layers {
		l := &src.Analysis.Layers[i]
		cls.AddInt(l.CLS)
		fls.AddInt(l.FLS)
		hist.Add(float64(l.CLS))
	}
	return Figure{
		ID:    "fig3",
		Title: "layer size distribution (CLS compressed, FLS uncompressed)",
		Body: renderCDF(cls, "CLS", "B") + renderCDF(fls, "FLS", "B") +
			renderHist(hist, "CLS histogram 0-128MB", "B"),
		Metrics: []Metric{
			{Name: "p50 CLS", Paper: 4 * mb, Measured: cls.Median(), Unit: "B"},
			{Name: "p90 CLS", Paper: 63 * mb, Measured: cls.P(90), Unit: "B"},
			{Name: "p50 FLS", Paper: 4 * mb, Measured: fls.Median(), Unit: "B"},
			{Name: "p90 FLS", Paper: 177 * mb, Measured: fls.P(90), Unit: "B"},
		},
	}, true
}

// Fig4 — layer compression ratio (FLS/CLS).
func Fig4(src *Source) (Figure, bool) {
	r := &stats.CDF{}
	hist := stats.NewHistogram([]float64{1, 2, 3, 4, 5, 6, 8, 10, 20, 50, 100, 1026})
	for i := range src.Analysis.Layers {
		l := &src.Analysis.Layers[i]
		if l.FLS == 0 {
			continue
		}
		ratio := l.Ratio()
		r.Add(ratio)
		hist.Add(ratio)
	}
	return Figure{
		ID:    "fig4",
		Title: "layer compression ratio (FLS-to-CLS)",
		Body:  renderCDF(r, "ratio", "") + renderHist(hist, "ratio histogram", ""),
		Metrics: []Metric{
			{Name: "median compression ratio", Paper: 2.6, Measured: r.Median()},
			{Name: "p90 compression ratio", Paper: 4, Measured: r.P(90)},
			{Name: "max compression ratio", Paper: 1026, Measured: r.Max(), ShapeOnly: true},
		},
	}, true
}

// Fig5 — files per layer.
func Fig5(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	for i := range src.Analysis.Layers {
		c.AddInt(int64(src.Analysis.Layers[i].FileCount))
	}
	return Figure{
		ID:    "fig5",
		Title: "file count per layer",
		Body:  renderCDF(c, "files/layer", ""),
		Metrics: []Metric{
			{Name: "p50 files per layer", Paper: 30, Measured: c.Median()},
			{Name: "p90 files per layer", Paper: 7410, Measured: c.P(90)},
			{Name: "single-file layer fraction", Paper: 0.27, Measured: c.FractionEqual(1), Unit: "%"},
			{Name: "empty layer fraction", Paper: 0.07, Measured: c.FractionEqual(0), Unit: "%"},
			{Name: "max files per layer", Paper: 826196, Measured: c.Max(), ShapeOnly: true},
		},
	}, true
}

// Fig6 — directories per layer.
func Fig6(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	for i := range src.Analysis.Layers {
		c.AddInt(int64(src.Analysis.Layers[i].DirCount))
	}
	return Figure{
		ID:    "fig6",
		Title: "directory count per layer",
		Body:  renderCDF(c, "dirs/layer", ""),
		Metrics: []Metric{
			{Name: "p50 dirs per layer", Paper: 11, Measured: c.Median()},
			{Name: "p90 dirs per layer", Paper: 826, Measured: c.P(90)},
			{Name: "max dirs per layer", Paper: 111940, Measured: c.Max(), ShapeOnly: true},
		},
	}, true
}

// Fig7 — maximum directory depth per layer.
func Fig7(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	hist := stats.NewHistogram(stats.LinearBounds(16, 16))
	for i := range src.Analysis.Layers {
		l := &src.Analysis.Layers[i]
		if l.FileCount == 0 && l.DirCount == 0 {
			continue // the empty layer has no depth
		}
		c.AddInt(int64(l.MaxDepth))
		hist.Add(float64(l.MaxDepth))
	}
	return Figure{
		ID:    "fig7",
		Title: "maximum directory depth per layer",
		Body:  renderCDF(c, "max depth", "") + renderHist(hist, "depth histogram", ""),
		Metrics: []Metric{
			{Name: "p50 max depth", Paper: 4, Measured: c.Median()},
			{Name: "p90 max depth", Paper: 10, Measured: c.P(90)},
			{Name: "modal depth", Paper: 3, Measured: hist.ModeBucket().High},
		},
	}, true
}

// Fig8 — repository popularity (pull counts).
func Fig8(src *Source) (Figure, bool) {
	if len(src.Repos) == 0 {
		return Figure{}, false
	}
	pulls := make([]int64, len(src.Repos))
	c := &stats.CDF{}
	for i := range src.Repos {
		pulls[i] = src.Repos[i].PullCount
		c.AddInt(pulls[i])
	}
	st := popularity.Analyze(pulls)
	var tops []string
	for _, t := range st.Top {
		tops = append(tops, fmt.Sprintf("%d", t))
	}
	body := renderCDF(c, "pulls/repo", "") +
		fmt.Sprintf("  top pull counts: %s\n", strings.Join(tops, ", ")) +
		fmt.Sprintf("  pull-count Gini coefficient: %.4f (skew the paper's caching argument rests on)\n", c.Gini()) +
		fmt.Sprintf("  Hill tail exponent (top decile): %.2f (smaller = heavier tail)\n",
			popularity.TailExponent(pulls, len(pulls)/10))
	return Figure{
		ID:    "fig8",
		Title: "repository popularity (pull counts)",
		Body:  body,
		Metrics: []Metric{
			{Name: "median pulls", Paper: 40, Measured: st.Median},
			{Name: "p90 pulls", Paper: 333, Measured: st.P90},
			{Name: "max pulls", Paper: 650e6, Measured: st.Max, ShapeOnly: true},
			{Name: "second peak pull count", Paper: 37, Measured: float64(st.SecondPeak)},
		},
	}, true
}

// Fig9 — image size distribution (CIS and FIS).
func Fig9(src *Source) (Figure, bool) {
	cis, fis := &stats.CDF{}, &stats.CDF{}
	for i := range src.Analysis.Images {
		cis.AddInt(src.Analysis.Images[i].CIS)
		fis.AddInt(src.Analysis.Images[i].FIS)
	}
	return Figure{
		ID:    "fig9",
		Title: "image size distribution (CIS compressed, FIS uncompressed)",
		Body:  renderCDF(cis, "CIS", "B") + renderCDF(fis, "FIS", "B"),
		Metrics: []Metric{
			{Name: "p50 CIS", Paper: 17 * mb, Measured: cis.Median(), Unit: "B"},
			{Name: "p90 CIS", Paper: 0.48 * 1024 * mb, Measured: cis.P(90), Unit: "B"},
			{Name: "p50 FIS", Paper: 94 * mb, Measured: fis.Median(), Unit: "B"},
			{Name: "p90 FIS", Paper: 1.3 * 1024 * mb, Measured: fis.P(90), Unit: "B"},
		},
	}, true
}

// Fig10 — layer count per image.
func Fig10(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	hist := stats.NewHistogram(stats.LinearBounds(40, 40))
	for i := range src.Analysis.Images {
		k := src.Analysis.Images[i].LayerCount()
		c.AddInt(int64(k))
		hist.Add(float64(k))
	}
	return Figure{
		ID:    "fig10",
		Title: "layer count per image",
		Body:  renderCDF(c, "layers/image", "") + renderHist(hist, "layer count histogram", ""),
		Metrics: []Metric{
			{Name: "p50 layers per image", Paper: 8, Measured: c.Median()},
			{Name: "p90 layers per image", Paper: 18, Measured: c.P(90)},
			{Name: "modal layer count", Paper: 8, Measured: hist.ModeBucket().High},
			{Name: "max layers per image", Paper: 120, Measured: c.Max(), ShapeOnly: true},
			{Name: "single-layer image fraction", Paper: 7060.0 / 355319.0, Measured: c.FractionEqual(1), Unit: "%"},
		},
	}, true
}

// Fig11 — directories per image.
func Fig11(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	for i := range src.Analysis.Images {
		c.AddInt(src.Analysis.Images[i].DirCount)
	}
	return Figure{
		ID:    "fig11",
		Title: "directory count per image",
		Body:  renderCDF(c, "dirs/image", ""),
		Metrics: []Metric{
			{Name: "p50 dirs per image", Paper: 296, Measured: c.Median()},
			{Name: "p90 dirs per image", Paper: 7344, Measured: c.P(90)},
		},
	}, true
}

// Fig12 — files per image.
func Fig12(src *Source) (Figure, bool) {
	c := &stats.CDF{}
	for i := range src.Analysis.Images {
		c.AddInt(src.Analysis.Images[i].FileCount)
	}
	return Figure{
		ID:    "fig12",
		Title: "file count per image",
		Body:  renderCDF(c, "files/image", ""),
		Metrics: []Metric{
			{Name: "p50 files per image", Paper: 1090, Measured: c.Median()},
			{Name: "p90 files per image", Paper: 64780, Measured: c.P(90)},
		},
	}, true
}

// Fig13 — the three-level file type taxonomy.
func Fig13(src *Source) (Figure, bool) {
	usage := src.Analysis.Index.TypeUsage()
	var totalCap float64
	for _, u := range usage {
		totalCap += u.Capacity
	}
	// The paper's 7 GB threshold on 166.8 TB of common capacity scales
	// with the dataset.
	threshold := totalCap * (7e9 / 167e12) * (167.0 / 166.8)
	tax := filetype.BuildTaxonomy(usage, threshold)
	body := fmt.Sprintf("  %d types observed; %d commonly used (capacity > %s each) holding %.1f%% of capacity\n",
		tax.TotalTypes, len(tax.Common), FormatBytes(threshold), tax.CommonShare*100)
	top := tax.Common
	if len(top) > 10 {
		top = top[:10]
	}
	for _, u := range top {
		body += fmt.Sprintf("    %-32s %10d files %12s\n", u.Type.Name(), u.Count, FormatBytes(u.Capacity))
	}
	return Figure{
		ID:    "fig13",
		Title: "taxonomy of file types (common vs non-common)",
		Body:  body,
		Metrics: []Metric{
			{Name: "commonly used types", Paper: 133, Measured: float64(len(tax.Common))},
			{Name: "common capacity share", Paper: 0.984, Measured: tax.CommonShare, Unit: "%"},
			{Name: "total observed types", Paper: 1500, Measured: float64(tax.TotalTypes), ShapeOnly: true},
		},
	}, true
}

// groupShares builds the instance-weighted per-group share table.
func groupShares(src *Source) *stats.ShareTable {
	tab := stats.NewShareTable()
	for _, u := range src.Analysis.Index.TypeUsage() {
		tab.Add(u.Type.Group().String(), u.Count, u.Capacity)
	}
	return tab
}

// Fig14 — file count and capacity by type group.
func Fig14(src *Source) (Figure, bool) {
	tab := groupShares(src)
	return Figure{
		ID:    "fig14",
		Title: "file count and capacity by type group",
		Body:  renderShares(tab, "type groups"),
		Metrics: []Metric{
			{Name: "documents count share", Paper: 0.44, Measured: tab.Get("Doc.").CountShare, Unit: "%"},
			{Name: "source code count share", Paper: 0.13, Measured: tab.Get("SC.").CountShare, Unit: "%"},
			{Name: "EOL count share", Paper: 0.11, Measured: tab.Get("EOL").CountShare, Unit: "%"},
			{Name: "scripts count share", Paper: 0.09, Measured: tab.Get("Scr.").CountShare, Unit: "%"},
			{Name: "image-data count share", Paper: 0.04, Measured: tab.Get("Img.").CountShare, Unit: "%"},
			{Name: "EOL capacity share", Paper: 0.37, Measured: tab.Get("EOL").CapacityShare, Unit: "%"},
			{Name: "archival capacity share", Paper: 0.23, Measured: tab.Get("Arch.").CapacityShare, Unit: "%"},
			{Name: "documents capacity share", Paper: 0.14, Measured: tab.Get("Doc.").CapacityShare, Unit: "%"},
		},
	}, true
}

// Fig15 — average file size by type group.
func Fig15(src *Source) (Figure, bool) {
	tab := groupShares(src)
	body := renderShares(tab, "type groups")
	if x := src.Analysis.Index; x.Instances() > 0 {
		r, q := x.Ratios(), x.SizeQuantiles(0.5, 0.9)
		body += fmt.Sprintf("  instance file sizes: mean=%s p50=%s p90=%s\n",
			FormatBytes(float64(r.TotalBytes)/float64(r.TotalFiles)), FormatBytes(float64(q[0])), FormatBytes(float64(q[1])))
	}
	return Figure{
		ID:    "fig15",
		Title: "average file size by type group",
		Body:  body,
		Metrics: []Metric{
			{Name: "mean database file size", Paper: 978.8 * 1024, Measured: tab.Get("DB.").MeanSize, Unit: "B"},
			{Name: "mean EOL file size", Paper: 100 * 1024, Measured: tab.Get("EOL").MeanSize, Unit: "B"},
			{Name: "mean archival file size", Paper: 100 * 1024, Measured: tab.Get("Arch.").MeanSize, Unit: "B"},
		},
	}, true
}

// familyShares builds a per-family share table within one group.
func familyShares(src *Source, g filetype.Group) *stats.ShareTable {
	tab := stats.NewShareTable()
	for _, u := range src.Analysis.Index.TypeUsage() {
		if u.Type.Group() != g {
			continue
		}
		tab.Add(u.Type.Family(), u.Count, u.Capacity)
	}
	return tab
}

// Fig16 — EOL breakdown (ELF, intermediate representations, PE, …).
func Fig16(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupEOL)
	return Figure{
		ID:    "fig16",
		Title: "EOL files by family (ELF, Com.=intermediate representations, PE, COFF, Lib, Pkg)",
		Body:  renderShares(tab, "EOL families"),
		Metrics: []Metric{
			{Name: "IR share of EOL count", Paper: 0.64, Measured: tab.Get("Com.").CountShare, Unit: "%"},
			{Name: "ELF share of EOL count", Paper: 0.30, Measured: tab.Get("ELF").CountShare, Unit: "%"},
			{Name: "ELF share of EOL capacity", Paper: 0.84, Measured: tab.Get("ELF").CapacityShare, Unit: "%"},
			{Name: "mean ELF size", Paper: 312 * 1024, Measured: tab.Get("ELF").MeanSize, Unit: "B"},
			{Name: "mean IR size", Paper: 9 * 1024, Measured: tab.Get("Com.").MeanSize, Unit: "B"},
		},
	}, true
}

// Fig17 — source code breakdown by language.
func Fig17(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupSourceCode)
	return Figure{
		ID:    "fig17",
		Title: "source code files by language",
		Body:  renderShares(tab, "languages"),
		Metrics: []Metric{
			{Name: "C/C++ share of SC count", Paper: 0.803, Measured: tab.Get("C/C++").CountShare, Unit: "%"},
			{Name: "C/C++ share of SC capacity", Paper: 0.80, Measured: tab.Get("C/C++").CapacityShare, Unit: "%"},
			{Name: "Perl5 share of SC count", Paper: 0.09, Measured: tab.Get("Perl5").CountShare, Unit: "%"},
			{Name: "Ruby share of SC count", Paper: 0.08, Measured: tab.Get("Ruby").CountShare, Unit: "%"},
		},
	}, true
}

// Fig18 — scripts breakdown.
func Fig18(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupScripts)
	return Figure{
		ID:    "fig18",
		Title: "script files by language",
		Body:  renderShares(tab, "script languages"),
		Metrics: []Metric{
			{Name: "Python share of script count", Paper: 0.535, Measured: tab.Get("Python").CountShare, Unit: "%"},
			{Name: "Python share of script capacity", Paper: 0.66, Measured: tab.Get("Python").CapacityShare, Unit: "%"},
			{Name: "shell share of script count", Paper: 0.20, Measured: tab.Get("Shell").CountShare, Unit: "%"},
			{Name: "shell share of script capacity", Paper: 0.06, Measured: tab.Get("Shell").CapacityShare, Unit: "%"},
			{Name: "Ruby share of script count", Paper: 0.10, Measured: tab.Get("Ruby").CountShare, Unit: "%"},
		},
	}, true
}

// Fig19 — documents breakdown.
func Fig19(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupDocuments)
	return Figure{
		ID:    "fig19",
		Title: "document files by family",
		Body:  renderShares(tab, "document families"),
		Metrics: []Metric{
			{Name: "raw text share of doc count", Paper: 0.854, Measured: tab.Get("Text").CountShare, Unit: "%"},
			{Name: "raw text share of doc capacity", Paper: 0.70, Measured: tab.Get("Text").CapacityShare, Unit: "%"},
			{Name: "XML/HTML share of doc count", Paper: 0.13, Measured: tab.Get("XML/HTML").CountShare, Unit: "%"},
			{Name: "XML/HTML share of doc capacity", Paper: 0.18, Measured: tab.Get("XML/HTML").CapacityShare, Unit: "%"},
		},
	}, true
}

// Fig20 — archival breakdown.
func Fig20(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupArchival)
	return Figure{
		ID:    "fig20",
		Title: "archival files by format",
		Body:  renderShares(tab, "archive formats"),
		Metrics: []Metric{
			{Name: "zip/gzip share of archive count", Paper: 0.963, Measured: tab.Get("Zip/Gzip").CountShare, Unit: "%"},
			{Name: "zip/gzip share of archive capacity", Paper: 0.70, Measured: tab.Get("Zip/Gzip").CapacityShare, Unit: "%"},
			{Name: "mean zip/gzip size", Paper: 67 * 1024, Measured: tab.Get("Zip/Gzip").MeanSize, Unit: "B"},
			{Name: "mean bzip2 size", Paper: 199 * 1024, Measured: tab.Get("Bzip2").MeanSize, Unit: "B"},
			{Name: "mean tar size", Paper: 466 * 1024, Measured: tab.Get("Tar").MeanSize, Unit: "B"},
			{Name: "mean xz size", Paper: 534 * 1024, Measured: tab.Get("XZ").MeanSize, Unit: "B"},
		},
	}, true
}

// Fig21 — database files breakdown.
func Fig21(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupDatabases)
	return Figure{
		ID:    "fig21",
		Title: "database files by engine",
		Body:  renderShares(tab, "database engines"),
		Metrics: []Metric{
			{Name: "BerkeleyDB share of DB count", Paper: 0.33, Measured: tab.Get("BerkeleyDB").CountShare, Unit: "%"},
			{Name: "MySQL share of DB count", Paper: 0.30, Measured: tab.Get("MySQL").CountShare, Unit: "%"},
			{Name: "SQLite share of DB count", Paper: 0.07, Measured: tab.Get("SQLite").CountShare, Unit: "%"},
			{Name: "SQLite share of DB capacity", Paper: 0.57, Measured: tab.Get("SQLite").CapacityShare, Unit: "%"},
		},
	}, true
}

// Fig22 — image-data files breakdown.
func Fig22(src *Source) (Figure, bool) {
	tab := familyShares(src, filetype.GroupImageData)
	return Figure{
		ID:    "fig22",
		Title: "image data files by format",
		Body:  renderShares(tab, "image formats"),
		Metrics: []Metric{
			{Name: "PNG share of image count", Paper: 0.67, Measured: tab.Get("PNG").CountShare, Unit: "%"},
			{Name: "PNG share of image capacity", Paper: 0.45, Measured: tab.Get("PNG").CapacityShare, Unit: "%"},
			{Name: "JPEG share of image capacity", Paper: 0.20, Measured: tab.Get("JPEG").CapacityShare, Unit: "%"},
		},
	}, true
}

// Fig23 — layer reference counts and layer-sharing effectiveness (§V-A).
func Fig23(src *Source) (Figure, bool) {
	refs := &stats.CDF{}
	var withSharing, withoutSharing float64
	var over25 int
	var maxRefs float64
	for i := range src.Analysis.Layers {
		l := &src.Analysis.Layers[i]
		refs.AddInt(int64(l.Refs))
		withSharing += float64(l.CLS)
		withoutSharing += float64(l.CLS) * float64(l.Refs)
		if l.Refs > 25 {
			over25++
		}
		if float64(l.Refs) > maxRefs {
			maxRefs = float64(l.Refs)
		}
	}
	sharingRatio := 0.0
	if withSharing > 0 {
		sharingRatio = withoutSharing / withSharing
	}
	body := renderCDF(refs, "references/layer", "") +
		fmt.Sprintf("  dataset %s with sharing, %s without -> %.2fx\n",
			FormatBytes(withSharing), FormatBytes(withoutSharing), sharingRatio)
	return Figure{
		ID:    "fig23",
		Title: "layer reference count and sharing effectiveness",
		Body:  body,
		Metrics: []Metric{
			{Name: "layers referenced once", Paper: 0.90, Measured: refs.FractionEqual(1), Unit: "%"},
			{Name: "layers referenced twice", Paper: 0.05, Measured: refs.FractionEqual(2), Unit: "%"},
			{Name: "layers shared by >25 images", Paper: 0.01, Measured: float64(over25) / float64(refs.N()), Unit: "%"},
			{Name: "layer-sharing dedup ratio", Paper: 85.0 / 47.0, Measured: sharingRatio, Unit: "x"},
		},
	}, true
}

// Fig24 — file repeat counts (§V-B).
func Fig24(src *Source) (Figure, bool) {
	cdf, maxRepeat, maxIsEmpty := src.Analysis.Index.RepeatCDF()
	r := src.Analysis.Index.Ratios()
	emptyFlag := 0.0
	if maxIsEmpty {
		emptyFlag = 1
	}
	body := renderCDF(cdf, "copies/unique file", "") +
		fmt.Sprintf("  max repeat %d (empty file: %v)\n", maxRepeat, maxIsEmpty)
	return Figure{
		ID:    "fig24",
		Title: "file repeat count distribution and global dedup",
		Body:  body,
		Metrics: []Metric{
			{Name: "files with >1 copy", Paper: 0.994, Measured: src.Analysis.Index.MultiCopyFrac(), Unit: "%"},
			{Name: "files with exactly 4 copies", Paper: 0.50, Measured: cdf.FractionEqual(4), Unit: "%"},
			{Name: "p90 copies", Paper: 10, Measured: cdf.P(90)},
			{Name: "unique file fraction", Paper: 0.032, Measured: r.UniqueFrac, Unit: "%", ShapeOnly: true},
			{Name: "count dedup ratio", Paper: 31.5, Measured: r.CountRatio, Unit: "x", ShapeOnly: true},
			{Name: "capacity dedup ratio", Paper: 6.9, Measured: r.CapacityRatio, Unit: "x", ShapeOnly: true},
			{Name: "max repeat is an empty file", Paper: 1, Measured: emptyFlag},
		},
	}, true
}

// Fig25 — dedup ratio growth with dataset size.
func Fig25(src *Source) (Figure, bool) {
	if len(src.Growth) == 0 {
		return Figure{}, false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %12s %14s %12s %12s\n", "layers", "files", "count ratio", "cap ratio")
	for _, g := range src.Growth {
		fmt.Fprintf(&b, "  %12d %14d %11.2fx %11.2fx\n", g.Layers, g.Files, g.CountRatio, g.CapacityRatio)
	}
	first, last := src.Growth[0], src.Growth[len(src.Growth)-1]
	growing := 0.0
	if last.CountRatio > first.CountRatio && last.CapacityRatio >= first.CapacityRatio {
		growing = 1
	}
	return Figure{
		ID:    "fig25",
		Title: "dedup ratio vs dataset size (nested samples)",
		Body:  b.String(),
		Metrics: []Metric{
			{Name: "count ratio grows with dataset", Paper: 1, Measured: growing},
			{Name: "count ratio span", Paper: 31.5 / 3.6, Measured: last.CountRatio / first.CountRatio, Unit: "x", ShapeOnly: true},
			{Name: "capacity ratio span", Paper: 6.9 / 1.9, Measured: last.CapacityRatio / first.CapacityRatio, Unit: "x", ShapeOnly: true},
		},
	}, true
}

// Fig26 — cross-layer and cross-image duplicate fractions.
func Fig26(src *Source) (Figure, bool) {
	layerFrac, imageFrac := &stats.CDF{}, &stats.CDF{}
	for i := range src.Analysis.Layers {
		if src.Analysis.Layers[i].FileCount > 0 {
			layerFrac.Add(src.Analysis.Layers[i].CrossLayerDupFrac)
		}
	}
	for i := range src.Analysis.Images {
		if src.Analysis.Images[i].FileCount > 0 {
			imageFrac.Add(src.Analysis.Images[i].CrossImageDupFrac)
		}
	}
	return Figure{
		ID:    "fig26",
		Title: "cross-layer and cross-image file duplicates",
		Body:  renderCDF(layerFrac, "cross-layer dup fraction", "%") + renderCDF(imageFrac, "cross-image dup fraction", "%"),
		Metrics: []Metric{
			// "90% of layers contain more than 97.6% of files that are
			// duplicated across layers" — the 10th percentile.
			{Name: "p10 cross-layer dup fraction", Paper: 0.976, Measured: layerFrac.P(10), Unit: "%"},
			{Name: "p10 cross-image dup fraction", Paper: 0.994, Measured: imageFrac.P(10), Unit: "%"},
		},
	}, true
}

// Fig27 — dedup by type group.
func Fig27(src *Source) (Figure, bool) {
	groups := src.Analysis.Index.ByGroup()
	byName := map[string]float64{}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s %14s %14s %10s\n", "group", "capacity", "unique", "dedup%")
	for _, g := range groups {
		byName[g.Group.String()] = g.DedupSavings
		fmt.Fprintf(&b, "  %-10s %14s %14s %9.1f%%\n", g.Group.String(),
			FormatBytes(float64(g.TotalBytes)), FormatBytes(float64(g.UniqueBytes)), g.DedupSavings*100)
	}
	overall := src.Analysis.Index.Ratios().DedupSavings
	return Figure{
		ID:    "fig27",
		Title: "dedup by type group (capacity removed)",
		Body:  b.String(),
		Metrics: []Metric{
			{Name: "overall dedup savings", Paper: 0.8569, Measured: overall, Unit: "%", ShapeOnly: true},
			{Name: "scripts dedup savings", Paper: 0.98, Measured: byName["Scr."], Unit: "%"},
			{Name: "source code dedup savings", Paper: 0.968, Measured: byName["SC."], Unit: "%"},
			{Name: "documents dedup savings", Paper: 0.92, Measured: byName["Doc."], Unit: "%"},
			{Name: "EOL dedup savings", Paper: 0.86, Measured: byName["EOL"], Unit: "%"},
			{Name: "archival dedup savings", Paper: 0.86, Measured: byName["Arch."], Unit: "%"},
			{Name: "database dedup savings", Paper: 0.76, Measured: byName["DB."], Unit: "%"},
		},
	}, true
}

// familyDedup aggregates per-family dedup within one group.
func familyDedup(src *Source, g filetype.Group) map[string][2]int64 {
	agg := map[string][2]int64{} // family -> [totalBytes, uniqueBytes]
	for _, td := range src.Analysis.Index.ByTypeInGroup(g) {
		fam := td.Type.Family()
		cur := agg[fam]
		cur[0] += td.TotalBytes
		cur[1] += td.UniqueBytes
		agg[fam] = cur
	}
	return agg
}

// famOrder fixes the row order of the per-family tables: capacity
// descending, name as tiebreak. Ranging over the map directly made the
// figure text differ run to run even at a fixed seed.
func famOrder(agg map[string][2]int64) []string {
	fams := make([]string, 0, len(agg))
	for fam := range agg {
		if agg[fam][0] != 0 {
			fams = append(fams, fam)
		}
	}
	sort.Slice(fams, func(i, j int) bool {
		if agg[fams[i]][0] != agg[fams[j]][0] {
			return agg[fams[i]][0] > agg[fams[j]][0]
		}
		return fams[i] < fams[j]
	})
	return fams
}

func famSavings(agg map[string][2]int64, fam string) float64 {
	cur := agg[fam]
	if cur[0] == 0 {
		return 0
	}
	return 1 - float64(cur[1])/float64(cur[0])
}

// Fig28 — dedup within the EOL group.
func Fig28(src *Source) (Figure, bool) {
	agg := familyDedup(src, filetype.GroupEOL)
	var b strings.Builder
	for _, fam := range famOrder(agg) {
		fmt.Fprintf(&b, "  %-10s capacity %12s dedup %5.1f%%\n", fam,
			FormatBytes(float64(agg[fam][0])), famSavings(agg, fam)*100)
	}
	return Figure{
		ID:    "fig28",
		Title: "dedup within EOL files",
		Body:  b.String(),
		Metrics: []Metric{
			{Name: "ELF dedup savings", Paper: 0.87, Measured: famSavings(agg, "ELF"), Unit: "%"},
			{Name: "IR dedup savings", Paper: 0.87, Measured: famSavings(agg, "Com."), Unit: "%"},
			{Name: "PE dedup savings", Paper: 0.87, Measured: famSavings(agg, "PE"), Unit: "%"},
			{Name: "library dedup savings", Paper: 0.535, Measured: famSavings(agg, "Lib"), Unit: "%"},
			{Name: "COFF dedup savings", Paper: 0.61, Measured: famSavings(agg, "COFF"), Unit: "%"},
		},
	}, true
}

// Fig29 — dedup within source code.
func Fig29(src *Source) (Figure, bool) {
	agg := familyDedup(src, filetype.GroupSourceCode)
	var b strings.Builder
	for _, fam := range famOrder(agg) {
		fmt.Fprintf(&b, "  %-10s capacity %12s dedup %5.1f%%\n", fam,
			FormatBytes(float64(agg[fam][0])), famSavings(agg, fam)*100)
	}
	return Figure{
		ID:    "fig29",
		Title: "dedup within source code",
		Body:  b.String(),
		Metrics: []Metric{
			{Name: "C/C++ dedup savings", Paper: 0.95, Measured: famSavings(agg, "C/C++"), Unit: "%"},
			{Name: "Perl5 dedup savings", Paper: 0.93, Measured: famSavings(agg, "Perl5"), Unit: "%"},
			{Name: "Ruby dedup savings", Paper: 0.93, Measured: famSavings(agg, "Ruby"), Unit: "%"},
			{Name: "Lisp/Scheme dedup savings (lowest)", Paper: 0.85, Measured: famSavings(agg, "Lisp"), Unit: "%"},
		},
	}, true
}
