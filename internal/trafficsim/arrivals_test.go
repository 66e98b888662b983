package trafficsim

import (
	"math/rand"
	"testing"
	"time"
)

// Arrival schedules must be pure functions of their seeds — no wall clock
// anywhere — so every test here runs without sleeping.

func TestPoissonDeterministic(t *testing.T) {
	mk := func() Arrivals {
		p, err := NewPoisson(100, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := schedule(mk(), 1000), schedule(mk(), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(func() Arrivals {
		p, _ := NewPoisson(100, rand.New(rand.NewSource(43)))
		return p
	}(), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestPoissonEmpiricalRate(t *testing.T) {
	const rate, n = 200.0, 20000
	p, err := NewPoisson(rate, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule(p, n)
	last := sched[n-1].Seconds()
	got := float64(n) / last
	// n exponential draws: relative error of the empirical rate
	// concentrates near 1/sqrt(n) ≈ 0.7%; 5% is a generous band.
	if got < rate*0.95 || got > rate*1.05 {
		t.Fatalf("empirical rate %.1f/s outside 5%% of %g/s", got, rate)
	}
	for i := 1; i < n; i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule not monotone at %d: %v < %v", i, sched[i], sched[i-1])
		}
	}
}

func TestConstantSpacing(t *testing.T) {
	c, err := NewConstant(50)
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule(c, 100)
	if sched[0] != 0 {
		t.Fatalf("first constant arrival at %v, want 0", sched[0])
	}
	want := 20 * time.Millisecond
	for i := 1; i < len(sched); i++ {
		gap := sched[i] - sched[i-1]
		if diff := gap - want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("gap %d is %v, want %v", i, gap, want)
		}
	}
}

func TestSquareWaveDutyCycle(t *testing.T) {
	const (
		base, burst = 20.0, 400.0
		duty        = 0.25
		n           = 30000
	)
	period := 2 * time.Second
	s, err := NewSquareWave(base, burst, period, duty, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule(s, n)

	// Bucket arrivals by phase-of-period; the burst window [0, duty*T)
	// must hold roughly duty*burst/(duty*burst + (1-duty)*base) of them.
	inBurst := 0
	for _, at := range sched {
		phase := at.Seconds() - float64(int64(at.Seconds()/period.Seconds()))*period.Seconds()
		if phase < duty*period.Seconds() {
			inBurst++
		}
	}
	wantFrac := duty * burst / (duty*burst + (1-duty)*base)
	gotFrac := float64(inBurst) / n
	if gotFrac < wantFrac-0.03 || gotFrac > wantFrac+0.03 {
		t.Fatalf("burst-window arrival fraction %.3f, want %.3f ± 0.03", gotFrac, wantFrac)
	}

	// Empirical rates inside each phase should track the configured ones.
	last := sched[n-1].Seconds()
	fullPeriods := float64(int64(last / period.Seconds()))
	if fullPeriods < 3 {
		t.Fatalf("schedule too short to cover phases: %v", sched[n-1])
	}
	burstTime := fullPeriods * duty * period.Seconds()
	gotBurstRate := float64(inBurst) / burstTime
	if gotBurstRate < burst*0.9 || gotBurstRate > burst*1.1 {
		t.Fatalf("burst-phase empirical rate %.1f/s outside 10%% of %g/s", gotBurstRate, burst)
	}
}

func TestSquareWaveZeroBase(t *testing.T) {
	period := time.Second
	s, err := NewSquareWave(0, 100, period, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range schedule(s, 2000) {
		phase := at.Seconds() - float64(int64(at.Seconds()/period.Seconds()))*period.Seconds()
		if phase >= 0.1*period.Seconds() {
			t.Fatalf("arrival %d at %v falls in the zero-rate quiet phase (offset %.3fs)", i, at, phase)
		}
	}
}

func TestArrivalValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPoisson(0, rng); err == nil {
		t.Error("NewPoisson accepted zero rate")
	}
	if _, err := NewPoisson(10, nil); err == nil {
		t.Error("NewPoisson accepted nil rng")
	}
	if _, err := NewConstant(-1); err == nil {
		t.Error("NewConstant accepted negative rate")
	}
	if _, err := NewSquareWave(10, 5, time.Second, 0.5, rng); err == nil {
		t.Error("NewSquareWave accepted burst <= base")
	}
	if _, err := NewSquareWave(1, 10, time.Second, 1.5, rng); err == nil {
		t.Error("NewSquareWave accepted duty >= 1")
	}
	if _, err := NewSquareWave(1, 10, 0, 0.5, rng); err == nil {
		t.Error("NewSquareWave accepted zero period")
	}
}

// TestArrivalSpecMeanRate pins the burst normalization: whatever the
// shape, the spec's Rate is the schedule's time-average rate.
func TestArrivalSpecMeanRate(t *testing.T) {
	env := &Env{Seed: 99, Requests: 1}
	for _, kind := range []string{"poisson", "constant", "burst"} {
		spec := ArrivalSpec{Kind: kind, Rate: 150}
		a, err := spec.Build(env)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		const n = 30000
		sched := schedule(a, n)
		got := float64(n) / sched[n-1].Seconds()
		if got < 150*0.93 || got > 150*1.07 {
			t.Errorf("%s: mean rate %.1f/s outside 7%% of 150/s", kind, got)
		}
	}
	if _, err := (ArrivalSpec{Kind: "sawtooth", Rate: 1}).Build(env); err == nil {
		t.Error("Build accepted unknown arrival kind")
	}
}

// schedule materializes the first n arrivals of a process.
func schedule(a Arrivals, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}
