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
)

func main() {
	scale := flag.Float64("scale", 0.002, "dataset scale (1.0 = the paper's 457,627 repositories)")
	seed := flag.Int64("seed", 0, "override dataset seed (0 = default)")
	wire := flag.Bool("wire", false, "run the full HTTP pipeline over materialized tarballs")
	workers := flag.Int("workers", 8, "pipeline parallelism")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-style markdown")
	csvDir := flag.String("csv", "", "also write plot-ready CDF series as CSV into this directory")
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

	fmt.Println(report.RenderScoreboard(res.Figures, 0.35))

	if *csvDir != "" {
		if err := writeCSVs(res, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing CSVs:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote plot series to %s\n", *csvDir)
	}
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
