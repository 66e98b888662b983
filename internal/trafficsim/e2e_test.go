package trafficsim

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/hubapi"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/topology"
)

// TestSlowClientDrainE2E is the end-to-end drain check: slow clients hold
// throttled blob streams open against a 3-node cluster while one node
// drains mid-run. The drain grace must let every in-flight stream finish
// and the router's replica fall-through must absorb everything after —
// zero failed requests — and the run must still produce a well-formed
// SLO verdict. Run under -race via the Makefile race target.
func TestSlowClientDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: real servers and wall-clock pacing")
	}
	ctx := context.Background()
	sc := &SlowClients{Nodes: 3, Replicas: 2, ReadBytesPerS: 256 << 10}
	env := &Env{Scale: 0.003, Seed: 7, Requests: 120}

	g := &serve.Group{}
	defer func() {
		sdctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(sdctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	opFor, err := sc.Setup(ctx, g, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stack.Nodes) != 3 {
		t.Fatalf("SlowClients with Nodes=3 provisioned %d nodes", len(sc.Stack.Nodes))
	}

	arrivals, err := NewPoisson(80, rand.New(rand.NewSource(env.Seed+seedArrive)))
	if err != nil {
		t.Fatal(err)
	}

	// Drain node 1 once load has built: streams opened before the drain
	// are mid-trickle when it lands.
	drained := make(chan error, 1)
	go func() {
		time.Sleep(400 * time.Millisecond)
		drained <- sc.Stack.Nodes[1].Drain(ctx)
	}()

	res, err := Run(ctx, Config{
		Arrivals: arrivals,
		Requests: env.Requests,
		Op:       opFor,
		Timeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}

	if res.Errors != 0 || res.Timeouts != 0 {
		t.Fatalf("drain mid-run failed requests: errors=%d timeouts=%d (of %d)", res.Errors, res.Timeouts, res.Dispatched)
	}
	if res.Completed != int64(env.Requests) {
		t.Fatalf("completed %d of %d requests", res.Completed, env.Requests)
	}
	if res.Bytes == 0 {
		t.Fatal("slow-client run moved no bytes")
	}

	slo := SLO{Percentile: 99, Latency: 15 * time.Second, MaxErrorRate: 0}
	v := slo.Evaluate(res)
	if !v.Pass {
		t.Errorf("SLO %v failed: observed p99 %.1fms, error rate %.3f", slo, v.ObservedMS, v.ErrorRate)
	}
	if v.ObservedMS <= 0 || v.TargetMS != 15000 || v.Percentile != 99 {
		t.Errorf("malformed verdict: %+v", v)
	}
	// The slow trickle dominates service time: p50 must exceed what an
	// unthrottled pull of a few-KB image would take.
	if p50 := res.Service.P(50); p50 < 5*time.Millisecond {
		t.Errorf("service p50 %v — throttled streams should be slower; throttle inactive?", p50)
	}
}

// TestScenarioSmoke provisions each non-cluster scenario once at tiny
// scale and runs a short open-loop burst through Execute — the full
// provision → run → drain cycle per scenario.
func TestScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: real servers")
	}
	scenarios := []Scenario{
		&MixedPushPull{PushFraction: 0.3},
		&FlashCrowd{HerdFraction: 0.75},
		&Hierarchy{Edges: 2},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Execute(context.Background(), sc, Options{
				Env:      Env{Scale: 0.003, Seed: 11, Requests: 60},
				Arrivals: ArrivalSpec{Kind: "poisson", Rate: 120},
				Timeout:  20 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.Timeouts != 0 {
				t.Fatalf("%s: errors=%d timeouts=%d", sc.Name(), res.Errors, res.Timeouts)
			}
			if res.Completed != 60 {
				t.Fatalf("%s: completed %d of 60", sc.Name(), res.Completed)
			}
			if res.Latency.N() == 0 || res.Bytes == 0 {
				t.Fatalf("%s: empty result", sc.Name())
			}
		})
	}
}

// TestReplayExternalDeployment points the replay scenario at a registry
// and a Hub search API it did not provision (here: a materialized
// registry and hubapi server on the test's own group, reached only by
// URL), once closed-loop and once on a Poisson schedule. Every traced
// pull must succeed and move exactly the traced images' layer bytes, and
// private or untagged repositories must never be traced.
func TestReplayExternalDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: real servers")
	}
	ctx := context.Background()
	env := Env{Scale: 0.001, Seed: 5, Requests: 120}
	g := &serve.Group{}
	defer func() {
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	pop, stack, err := provision(g, &env, topology.Topology{}, topology.Site{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.names) == len(pop.repos) {
		t.Fatal("population has no private or untagged repository to filter out")
	}
	// The index repeats entries, like the real Hub search.
	hubSrv := &serve.Server{Name: "search", Handler: hubapi.NewServer(pop.repos, 1.4, 9, 0)}
	if err := g.Start(hubSrv); err != nil {
		t.Fatal(err)
	}
	sc := &Replay{Registry: stack.URL, Search: hubSrv.URL()}

	// The deployment's pullable set, seen only through its two URLs, is
	// the in-process filter's: no private, no untagged, no duplicates.
	client := &registry.Client{Base: sc.Registry}
	names, weights, err := sc.pullable(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), pop.names...)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("replay traces %d repositories, the deployment has %d pullable", len(names), len(want))
	}

	// Expected payload: the declared layer sizes of every traced image.
	trace, err := env.trace(weights)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes int64
	for _, idx := range trace {
		m, _, err := client.ManifestContext(ctx, names[idx], "latest")
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range m.Layers {
			wantBytes += l.Size
		}
	}

	for _, spec := range []ArrivalSpec{
		{Kind: "closed", Workers: 4},
		{Kind: "poisson", Rate: 200},
	} {
		res, err := Execute(ctx, sc, Options{Env: env, Arrivals: spec, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if res.Completed != int64(res.Requests) || res.Errors+res.Timeouts != 0 {
			t.Errorf("%s: %d of %d completed, %d errors, %d timeouts",
				spec.Kind, res.Completed, res.Requests, res.Errors, res.Timeouts)
		}
		if res.Bytes != wantBytes {
			t.Errorf("%s: moved %d bytes, traced images hold %d", spec.Kind, res.Bytes, wantBytes)
		}
	}
}
