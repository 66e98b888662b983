package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1.00KiB"},
		{4 * 1024 * 1024, "4.00MiB"},
		{1.5 * 1024 * 1024 * 1024, "1.50GiB"},
		{47e12, "42.75TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatVal(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0.305, "%", "30.5%"},
		{1.81, "x", "1.81x"},
		{42, "", "42"},
		{2.6, "", "2.6"},
		{1024, "B", "1.00KiB"},
	}
	for _, c := range cases {
		if got := formatVal(c.v, c.unit); got != c.want {
			t.Errorf("formatVal(%v, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestMetricFormat(t *testing.T) {
	m := Metric{Name: "median pulls", Paper: 40, Measured: 38}
	s := m.Format()
	if !strings.Contains(s, "median pulls") || !strings.Contains(s, "paper=40") ||
		!strings.Contains(s, "measured=38") {
		t.Fatalf("Format() = %q", s)
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{
		ID:      "figX",
		Title:   "test figure",
		Body:    "  body line\n",
		Metrics: []Metric{{Name: "m", Paper: 1, Measured: 2}},
	}
	s := f.String()
	for _, want := range []string{"figX", "test figure", "body line", "paper=1", "measured=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestRenderCDF(t *testing.T) {
	c := cdfOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := renderCDF(c, "sample", "")
	if !strings.Contains(s, "n=10") || !strings.Contains(s, "p50=5") {
		t.Fatalf("renderCDF output:\n%s", s)
	}
}

func TestRenderHist(t *testing.T) {
	h := stats.NewHistogram([]float64{10, 20})
	for i := 0; i < 15; i++ {
		h.Add(float64(i * 2))
	}
	s := renderHist(h, "sizes", "")
	if !strings.Contains(s, "n=15") || !strings.Contains(s, "#") {
		t.Fatalf("renderHist output:\n%s", s)
	}
	// Overflow row appears when samples exceed the last bound.
	if !strings.Contains(s, ">") {
		t.Fatalf("renderHist missing overflow row:\n%s", s)
	}
}

func TestRenderShares(t *testing.T) {
	tab := stats.NewShareTable()
	tab.Add("EOL", 10, 1000)
	tab.Add("Doc.", 90, 500)
	s := renderShares(tab, "groups")
	if !strings.Contains(s, "EOL") || !strings.Contains(s, "Doc.") {
		t.Fatalf("renderShares output:\n%s", s)
	}
	// EOL (more capacity) must come first.
	if strings.Index(s, "EOL") > strings.Index(s, "Doc.") {
		t.Fatal("shares not sorted by capacity")
	}
}

func cdfOf(samples []float64) *stats.CDF {
	c := &stats.CDF{}
	for _, v := range samples {
		c.Add(v)
	}
	return c
}
