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
	"repro/internal/dedupstore"
	"repro/internal/popularity"
	"repro/internal/pullsim"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/synth"
)

func main() {
	scale := flag.Float64("scale", 0.002, "dataset scale (1.0 = the paper's 457,627 repositories)")
	seed := flag.Int64("seed", 0, "override dataset seed (0 = default)")
	wire := flag.Bool("wire", false, "run the full HTTP pipeline over materialized tarballs")
	workers := flag.Int("workers", 8, "pipeline parallelism")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-style markdown")
	cache := flag.Bool("cache", true, "run the registry cache simulation (future-work extension)")
	ext := flag.Bool("ext", true, "run the pull-latency and dedup-storage extensions")
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

	if *cache {
		runCacheSim(res)
	}
	if *ext {
		runPullLatency(res)
		if opts.Topology != nil {
			runDedupStore(res)
		}
	}
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

// runPullLatency sweeps the §IV-A(a) storage policy over the layer
// population at several network speeds: when is storing small layers
// uncompressed a win?
func runPullLatency(res *repro.Result) {
	layers := make([]pullsim.LayerInfo, 0, len(res.Analysis.Layers))
	for i := range res.Analysis.Layers {
		l := &res.Analysis.Layers[i]
		layers = append(layers, pullsim.LayerInfo{CLS: l.CLS, FLS: l.FLS})
	}
	fmt.Println("=== latency: small-layer compression policy (§IV-A(a) implication) ===")
	fmt.Printf("  crossover bandwidth for the median ratio 2.6 on a 150MB/s decompressor: %s/s\n",
		report.FormatBytes(pullsim.CrossoverBandwidth(2.6, 150e6)))
	fmt.Printf("  %12s %16s %16s %14s\n", "network", "all-gzip mean", "small-raw mean", "best policy")
	for _, mbps := range []float64{10, 100, 1000, 10000} {
		link := pullsim.DefaultLink()
		link.BandwidthBps = mbps * 1e6 / 8
		allGzip, err := pullsim.Evaluate(layers, 0, link)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latency:", err)
			return
		}
		smallRaw, err := pullsim.Evaluate(layers, 4<<20, link) // <4 MiB uncompressed
		if err != nil {
			fmt.Fprintln(os.Stderr, "latency:", err)
			return
		}
		best, err := pullsim.BestThreshold(layers, []int64{64 << 10, 1 << 20, 4 << 20, 64 << 20}, link)
		if err != nil {
			fmt.Fprintln(os.Stderr, "latency:", err)
			return
		}
		policy := fmt.Sprintf("<%s raw", report.FormatBytes(float64(best.Threshold)))
		if best.Threshold == 0 {
			policy = "all gzip"
		} else if best.UncompressedLayers == len(layers) {
			policy = "all raw"
		}
		fmt.Printf("  %9.0fMbps %14.1fms %14.1fms %14s\n",
			mbps, allGzip.MeanSeconds*1000, smallRaw.MeanSeconds*1000, policy)
	}
	fmt.Println()
}

// runDedupStore ingests every materialized layer into the file-level
// deduplicating storage backend (§VI) and reports the realized savings
// against a conventional per-layer blob store.
func runDedupStore(res *repro.Result) {
	store := dedupstore.New(dedupstore.NewMemoryPool(0))
	var plainBytes int64
	for i := range res.Dataset.Layers {
		blob, err := synth.RenderLayer(res.Dataset, synth.LayerID(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "storage:", err)
			return
		}
		plainBytes += int64(len(blob))
		if _, err := store.Put(blob); err != nil {
			fmt.Fprintln(os.Stderr, "storage:", err)
			return
		}
	}
	st := store.Stats()
	fmt.Println("=== storage: file-level deduplicating backend (§VI) ===")
	fmt.Printf("  %d layers, %d file instances (%d unique)\n", st.Layers, st.TotalFiles, st.UniqueFiles)
	fmt.Printf("  conventional blob store: %s; dedup store: %s (pool %s + recipes %s)\n",
		report.FormatBytes(float64(plainBytes)), report.FormatBytes(float64(st.PhysicalBytes())),
		report.FormatBytes(float64(st.FileBytes)), report.FormatBytes(float64(st.RecipeBytes)))
	fmt.Printf("  realized dedup over logical content: %.2fx\n\n", st.SavingsRatio())
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

// runCacheSim replays a popularity-weighted pull trace against LRU and LFU
// registry caches at several capacities — the paper's §IV-B(a)/§VI caching
// implication.
func runCacheSim(res *repro.Result) {
	pulls := make([]int64, len(res.Dataset.Repos))
	sizes := make([]int64, len(res.Dataset.Repos))
	var totalBytes int64
	for i := range res.Dataset.Repos {
		pulls[i] = res.Dataset.Repos[i].Pulls
		if img := res.Dataset.Repos[i].Image; img >= 0 {
			var cis int64
			for _, l := range res.Dataset.ImageLayers(synth.ImageID(img)) {
				cis += res.Dataset.Layers[l].CLS
			}
			sizes[i] = cis
			totalBytes += cis
		}
	}
	trace, err := popularity.Trace(pulls, 200_000, res.Dataset.Spec.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cache sim:", err)
		return
	}
	fmt.Println("=== cache: registry image cache simulation (§IV-B(a) implication) ===")
	fmt.Printf("  %10s %12s %10s %10s %12s %12s\n", "policy", "capacity", "hit%", "byte-hit%", "cap/total", "cached")
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.25, 0.50} {
		capBytes := int64(float64(totalBytes) * frac)
		if capBytes < 1 {
			capBytes = 1
		}
		for _, policy := range []string{"LRU", "LFU"} {
			var c popularity.Cache
			if policy == "LRU" {
				c = popularity.NewLRU(capBytes)
			} else {
				c = popularity.NewLFU(capBytes)
			}
			sim, err := popularity.Simulate(trace, sizes, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cache sim:", err)
				return
			}
			fmt.Printf("  %10s %12s %9.1f%% %9.1f%% %11.0f%% %12s\n",
				policy, report.FormatBytes(float64(capBytes)),
				sim.HitRatio*100, sim.ByteHitRatio*100, frac*100,
				report.FormatBytes(float64(c.Used())))
		}
	}
}
