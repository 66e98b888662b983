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

func TestLRUBasics(t *testing.T) {
	c := NewLRU(100)
	if c.Access(1, 60) {
		t.Error("first access hit")
	}
	if !c.Access(1, 60) {
		t.Error("second access missed")
	}
	c.Access(2, 50) // evicts 1 (60+50 > 100)
	if c.Used() != 50 {
		t.Errorf("Used = %d, want 50", c.Used())
	}
	if c.Access(1, 60) {
		t.Error("evicted key hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 40)
	c.Access(2, 40)
	c.Access(1, 40) // 1 now most recent
	c.Access(3, 40) // evicts 2
	if !c.Access(1, 40) {
		t.Error("recently used key evicted")
	}
	if c.Access(2, 40) {
		t.Error("least recently used key survived")
	}
}

func TestLRUOversizedObject(t *testing.T) {
	c := NewLRU(10)
	if c.Access(1, 100) {
		t.Error("oversized object hit")
	}
	if c.Used() != 0 {
		t.Error("oversized object cached")
	}
	// Cache still works afterwards.
	c.Access(2, 5)
	if !c.Access(2, 5) {
		t.Error("cache broken after oversized insert")
	}
}

func TestLFUKeepsHotObjects(t *testing.T) {
	c := NewLFU(100)
	for i := 0; i < 10; i++ {
		c.Access(1, 50)
	}
	c.Access(2, 50)
	c.Access(3, 50) // must evict 2 (freq 1), not 1 (freq 10)
	if !c.Access(1, 50) {
		t.Error("hot object evicted by LFU")
	}
	if c.Access(2, 50) {
		t.Error("cold object survived")
	}
}

func TestLFUOversized(t *testing.T) {
	c := NewLFU(10)
	if c.Access(1, 11) {
		t.Error("oversized hit")
	}
	if c.Used() != 0 {
		t.Error("oversized cached")
	}
}

func TestSimulateSkewedTraceCachesWell(t *testing.T) {
	// Zipf-ish population: repo 0 dominates.
	pulls := make([]int64, 1000)
	for i := range pulls {
		pulls[i] = int64(1000 / (i + 1))
	}
	trace, err := Trace(pulls, 50_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 1000)
	for i := range sizes {
		sizes[i] = 100
	}
	// A cache holding just 5% of objects should capture a large hit
	// ratio under this skew — the paper's caching argument.
	small, err := Simulate(trace, sizes, NewLRU(50*100))
	if err != nil {
		t.Fatal(err)
	}
	if small.HitRatio < 0.45 {
		t.Errorf("small cache hit ratio = %v, want > 0.45 under skew", small.HitRatio)
	}
	big, err := Simulate(trace, sizes, NewLRU(1000*100))
	if err != nil {
		t.Fatal(err)
	}
	if big.HitRatio <= small.HitRatio {
		t.Errorf("bigger cache not better: %v <= %v", big.HitRatio, small.HitRatio)
	}
	if small.ByteHitRatio != small.HitRatio {
		t.Errorf("uniform sizes: byte ratio %v != hit ratio %v", small.ByteHitRatio, small.HitRatio)
	}
}

func TestSimulateLFUvsLRUOnScan(t *testing.T) {
	// A scan-heavy trace (one hot key re-appearing at intervals longer
	// than the LRU horizon) is where LFU beats LRU: the scan flushes LRU
	// between hot accesses, while LFU pins the high-frequency key.
	trace := []int{0, 0} // establish the hot key's frequency lead
	scan := 0
	for i := 0; i < 2000; i++ {
		trace = append(trace, 0) // hot
		for j := 0; j < 14; j++ {
			trace = append(trace, 1+scan%1000)
			scan++
		}
	}
	sizes := make([]int64, 1001)
	for i := range sizes {
		sizes[i] = 10
	}
	lru, err := Simulate(trace, sizes, NewLRU(100))
	if err != nil {
		t.Fatal(err)
	}
	lfu, err := Simulate(trace, sizes, NewLFU(100))
	if err != nil {
		t.Fatal(err)
	}
	if lfu.Hits <= lru.Hits {
		t.Errorf("LFU hits %d <= LRU hits %d on scan-heavy trace", lfu.Hits, lru.Hits)
	}
}

func TestSimulateBadTrace(t *testing.T) {
	if _, err := Simulate([]int{5}, make([]int64, 2), NewLRU(10)); err == nil {
		t.Fatal("out-of-range key accepted")
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	c := NewLRU(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(i%10_000, 128)
	}
}

func BenchmarkLFUAccess(b *testing.B) {
	c := NewLFU(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(i%10_000, 128)
	}
}
