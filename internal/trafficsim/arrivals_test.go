package trafficsim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/serve"
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

func TestArrivalValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPoisson(0, rng); err == nil {
		t.Error("NewPoisson accepted zero rate")
	}
	if _, err := NewPoisson(10, nil); err == nil {
		t.Error("NewPoisson accepted nil rng")
	}
}

// TestArrivalSpecMeanRate: a spec's Rate is the mean rate Execute
// dispatches at, the empty kind is Poisson, and an unknown kind is
// refused before the scenario is set up.
func TestArrivalSpecMeanRate(t *testing.T) {
	const n = 5000
	opt := Options{Env: Env{Seed: 99, Requests: n, Clock: NewVirtualClock(time.Unix(0, 0))}}
	for _, kind := range []string{"", "poisson"} {
		opt.Arrivals = ArrivalSpec{Kind: kind, Rate: 150}
		res, err := Execute(context.Background(), fixedOps{}, opt)
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		// On the virtual clock the run ends at its last arrival.
		got := float64(n) / res.Wall.Seconds()
		if got < 150*0.93 || got > 150*1.07 {
			t.Errorf("%q: mean rate %.1f/s outside 7%% of 150/s", kind, got)
		}
	}
	opt.Arrivals = ArrivalSpec{Kind: "sawtooth", Rate: 1}
	if _, err := Execute(context.Background(), setupForbidden{t}, opt); err == nil {
		t.Error("Execute accepted unknown arrival kind")
	}
}

// setupForbidden is a scenario whose Setup must not be reached.
type setupForbidden struct{ t *testing.T }

func (setupForbidden) Name() string { return "setup-forbidden" }

func (s setupForbidden) Setup(context.Context, *serve.Group, *Env) (func(i int) Op, error) {
	s.t.Error("Setup ran for a run that was refused")
	return nil, errors.New("setup-forbidden")
}

// schedule materializes the first n arrivals of a process.
func schedule(a Arrivals, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}
