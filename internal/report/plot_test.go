package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestPlotCDFLogScale(t *testing.T) {
	c := &stats.CDF{}
	for i := 1; i <= 10_000; i++ {
		c.AddInt(int64(i))
	}
	out := PlotCDF(c, "sizes", "", 60, 10)
	if !strings.Contains(out, "log x-axis") {
		t.Fatal("four-decade span did not select log axis")
	}
	if !strings.Contains(out, "1.0 |") || !strings.Contains(out, "0.0 |") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
	if strings.Count(out, "*") < 30 {
		t.Fatalf("curve too sparse:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // title + 10 rows + x labels
		t.Fatalf("plot has %d lines, want 12", len(lines))
	}
}

func TestPlotCDFLinearScale(t *testing.T) {
	c := cdfOf([]float64{10, 11, 12, 13, 14, 15})
	out := PlotCDF(c, "narrow", "", 40, 8)
	if !strings.Contains(out, "linear x-axis") {
		t.Fatalf("narrow span did not select linear axis:\n%s", out)
	}
}

func TestPlotCDFMonotoneCurve(t *testing.T) {
	c := &stats.CDF{}
	for i := 1; i <= 1000; i++ {
		c.AddInt(int64(i * i))
	}
	out := PlotCDF(c, "m", "", 50, 10)
	// The curve must be non-increasing in row index as x grows: for each
	// column, find the row of its star; rows must not increase.
	lines := strings.Split(out, "\n")
	rows := lines[1:11]
	lastRow := len(rows)
	for col := 0; col < 50; col++ {
		for r := 0; r < len(rows); r++ {
			idx := strings.Index(rows[r], "|")
			line := rows[r][idx+1:]
			if col < len(line) && line[col] == '*' {
				if r > lastRow {
					t.Fatalf("curve not monotone at column %d", col)
				}
				lastRow = r
				break
			}
		}
	}
}

func TestPlotCDFEmpty(t *testing.T) {
	out := PlotCDF(&stats.CDF{}, "empty", "", 40, 8)
	if !strings.Contains(out, "no samples") {
		t.Fatalf("empty plot: %q", out)
	}
}

func TestPlotCDFDegenerate(t *testing.T) {
	c := cdfOf([]float64{5})
	out := PlotCDF(c, "single", "", 0, 0) // exercise defaults
	if !strings.Contains(out, "n=1") {
		t.Fatalf("single-sample plot:\n%s", out)
	}
}

func TestPlotCDFBytesUnit(t *testing.T) {
	c := cdfOf([]float64{1024, 1024 * 1024, 512 * 1024 * 1024})
	out := PlotCDF(c, "bytes", "B", 40, 6)
	if !strings.Contains(out, "KiB") || !strings.Contains(out, "MiB") {
		t.Fatalf("byte axis labels missing:\n%s", out)
	}
}

// cdfOf builds a CDF holding samples.
func cdfOf(samples []float64) *stats.CDF {
	c := &stats.CDF{}
	for _, v := range samples {
		c.Add(v)
	}
	return c
}
