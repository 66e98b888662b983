package popularity

import (
	"math"
	"math/rand"
	"testing"
)

func TestAnalyze(t *testing.T) {
	pulls := []int64{1, 2, 37, 37, 37, 40, 100, 650}
	st := Analyze(pulls)
	if st.Max != 650 {
		t.Errorf("Max = %v", st.Max)
	}
	if st.SecondPeak != 37 {
		t.Errorf("SecondPeak = %v, want 37", st.SecondPeak)
	}
	if len(st.Top) != 5 || st.Top[0] != 650 || st.Top[1] != 100 {
		t.Errorf("Top = %v", st.Top)
	}
	if st.Median != 37 {
		t.Errorf("Median = %v", st.Median)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(nil)
	if st.Max != 0 || len(st.Top) != 0 {
		t.Fatalf("empty analyze: %+v", st)
	}
}

func TestInsertTop(t *testing.T) {
	var top []int64
	for _, v := range []int64{5, 1, 9, 3, 7, 2, 8} {
		top = insertTop(top, v, 3)
	}
	want := []int64{9, 8, 7}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top = %v, want %v", top, want)
		}
	}
}

func TestTailExponent(t *testing.T) {
	// Samples from an exact Pareto(1, alpha=1.5) via inverse transform.
	const alpha = 1.5
	rng := rand.New(rand.NewSource(3))
	pulls := make([]int64, 20_000)
	for i := range pulls {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		pulls[i] = int64(1e3 * math.Pow(u, -1/alpha))
	}
	got := TailExponent(pulls, 2000)
	if math.Abs(got-alpha) > 0.15 {
		t.Fatalf("Hill estimate = %v, want ~%v", got, alpha)
	}
}

func TestTailExponentDegenerate(t *testing.T) {
	if TailExponent(nil, 10) != 0 {
		t.Error("empty input should give 0")
	}
	if TailExponent([]int64{1, 2, 3}, 10) != 0 {
		t.Error("k >= n should give 0")
	}
	if TailExponent([]int64{5, 5, 5, 5, 5}, 2) != 0 {
		t.Error("constant tail should give 0 (log ratios all zero)")
	}
	if TailExponent([]int64{0, 0, 1, 2}, 5) != 0 {
		t.Error("zeros filtered; insufficient tail should give 0")
	}
}

func TestTraceProportional(t *testing.T) {
	pulls := []int64{900, 100, 0}
	trace, err := Trace(pulls, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for _, k := range trace {
		counts[k]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-pull repo appeared %d times", counts[2])
	}
	frac := float64(counts[0]) / 100_000
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("popular repo share = %v, want 0.9", frac)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := Trace(nil, 10, 1); err == nil {
		t.Error("empty pulls accepted")
	}
	if _, err := Trace([]int64{0, 0}, 10, 1); err == nil {
		t.Error("all-zero pulls accepted")
	}
	if _, err := Trace([]int64{1, -1}, 10, 1); err == nil {
		t.Error("negative pulls accepted")
	}
}
