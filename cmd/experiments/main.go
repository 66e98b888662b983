// Command experiments regenerates every table and figure of the paper's
// evaluation from a synthetic Docker Hub at the requested scale and prints
// paper-vs-measured comparisons.
//
// Usage:
//
//	experiments [-scale 0.002] [-seed N] [-wire] [-workers 8] [-markdown]
//
// Model mode (default) reproduces the statistics at scale; -wire runs the
// full crawl → fused download+analyze pipeline over real tarballs served
// by an in-process registry (use small scales: the byte volume is real).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	scale := flag.Float64("scale", 0.002, "dataset scale (1.0 = the paper's 457,627 repositories)")
	seed := flag.Int64("seed", 0, "override dataset seed (0 = default)")
	wire := flag.Bool("wire", false, "run the full HTTP pipeline over materialized tarballs")
	workers := flag.Int("workers", 8, "pipeline parallelism")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-style markdown")
	csvDir := flag.String("csv", "", "also write plot-ready CDF series as CSV into this directory")
	plots := flag.Bool("plots", false, "render ASCII CDF plots for the headline distributions")
	flag.Parse()

	opts := repro.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	mode := "model"
	if *wire {
		opts.Topology, mode = &repro.Topology{}, "wire"
	}
	start := time.Now()
	res, err := repro.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	fmt.Printf("# Docker Hub dataset reproduction — mode=%s scale=%g (%s)\n",
		mode, *scale, time.Since(start).Round(time.Millisecond))
	fmt.Printf("# repos=%d images=%d layers=%d files=%d uncompressed=%s compressed=%s\n\n",
		len(res.Dataset.Repos), len(res.Dataset.Images), len(res.Dataset.Layers),
		res.Dataset.FileInstances(),
		report.FormatBytes(float64(res.Dataset.TotalFLS())),
		report.FormatBytes(float64(res.Dataset.TotalCLS())))

	for _, fig := range res.Figures {
		if *markdown {
			printMarkdown(fig)
		} else {
			fmt.Println(fig)
		}
	}

	if *plots {
		runPlots(res)
	}

	fmt.Println(report.RenderScoreboard(res.Figures, 0.35))

	if *csvDir != "" {
		if err := writeCSVs(res, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing CSVs:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote plot series to %s\n", *csvDir)
	}
}

// runPlots renders the headline CDFs as ASCII curves, the terminal
// rendition of the paper's figure panels.
func runPlots(res *repro.Result) {
	cls, files, refs, repeats := &stats.CDF{}, &stats.CDF{}, &stats.CDF{}, &stats.CDF{}
	for i := range res.Analysis.Layers {
		l := &res.Analysis.Layers[i]
		if l.CLS > 0 {
			cls.AddInt(l.CLS)
		}
		files.AddInt(int64(l.FileCount) + 1) // +1 keeps the log axis usable
		refs.AddInt(int64(l.Refs))
	}
	rc, _, _ := res.Analysis.Index.RepeatCDF()
	repeats = rc
	pulls := &stats.CDF{}
	for i := range res.Source.Repos {
		pulls.AddInt(res.Source.Repos[i].PullCount + 1)
	}
	fmt.Println("=== plots ===")
	fmt.Print(report.PlotCDF(cls, "fig3(a): compressed layer size", "B", 64, 12))
	fmt.Print(report.PlotCDF(files, "fig5: files per layer (+1)", "", 64, 12))
	fmt.Print(report.PlotCDF(pulls, "fig8: pulls per repository (+1)", "", 64, 12))
	fmt.Print(report.PlotCDF(refs, "fig23: references per layer", "", 64, 12))
	fmt.Print(report.PlotCDF(repeats, "fig24: copies per unique file", "", 64, 12))
	fmt.Println()
}

// printMarkdown renders a figure as a markdown section with a comparison
// table.
func printMarkdown(f repro.Figure) {
	fmt.Printf("## %s — %s\n\n", f.ID, f.Title)
	fmt.Println("| metric | paper | measured |")
	fmt.Println("|---|---|---|")
	for _, m := range f.Metrics {
		note := ""
		if m.ShapeOnly {
			note = " †"
		}
		fmt.Printf("| %s%s | %s | %s |\n", m.Name, note,
			report.FormatValue(m.Paper, m.Unit), report.FormatValue(m.Measured, m.Unit))
	}
	fmt.Println()
}
