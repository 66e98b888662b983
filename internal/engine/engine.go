// Package engine is the staged run engine behind core.Study: a study is a
// declared graph of named stages (generate → materialize → serve → crawl →
// download → analyze → dedup-growth → report) executed by a Runner over a
// shared environment. The engine owns the orchestration concerns the
// stages themselves should not re-implement — per-stage wall-time and
// outcome accounting, first-error cancellation of everything still
// running, and the run-wide defaults (worker count, seed, clock) that were
// previously copy-pasted across packages.
//
// Stages are generic over the state type they mutate, so the engine knows
// nothing about datasets or registries: core defines its own State and
// assembles model, wire, and fused runs as three graphs over one stage
// set.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// DefaultWorkers is the run-wide parallelism default. Every component that
// accepts a worker count (study orchestration, image downloads, fused
// assembly walks) resolves 0 to this value through Workers, so the default
// lives in exactly one place.
const DefaultWorkers = 8

// Workers resolves a configured worker count: non-positive means
// DefaultWorkers.
func Workers(n int) int {
	if n <= 0 {
		return DefaultWorkers
	}
	return n
}

// Env is the shared run environment a stage graph executes under: the
// knobs that must agree across stages live here instead of being
// re-defaulted per package.
type Env struct {
	// Workers bounds pipeline parallelism (crawler pages, image
	// downloads, layer walks). Non-positive resolves to DefaultWorkers.
	Workers int
	// Seed is the run's base RNG seed; derived generators offset it so
	// subsystems never share a stream.
	Seed int64
	// Now is the clock seam (time.Now when nil); the runner stamps stage
	// wall times through it so engine tests can use a fake clock.
	Now func() time.Time
}

// WorkerCount resolves the environment's worker bound.
func (e *Env) WorkerCount() int { return Workers(e.Workers) }

// RNG derives a deterministic generator from the run seed. Distinct
// offsets give independent streams, mirroring the dataset generator's
// seed-plus-offset convention.
func (e *Env) RNG(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed + offset))
}

func (e *Env) now() time.Time { return e.Clock()() }

// Clock resolves the environment's time source: the injected Now when
// set, the system clock otherwise. Deterministic packages that need wall
// times (stage timing, fused-pipeline phase splits) read time through
// this seam so a fake clock governs the whole run in tests.
func (e *Env) Clock() func() time.Time {
	if e != nil && e.Now != nil {
		return e.Now
	}
	return SystemNow
}

// SystemNow is the real clock behind Env.Clock's nil default — the one
// sanctioned wall-clock read in the deterministic packages (the
// noadhocclock lint rule forbids bare time.Now there).
func SystemNow() time.Time {
	return time.Now() //lint:allow noadhocclock the clock seam's single real implementation
}

// SleepContext pauses for d or until ctx is done, whichever comes first
// — the sanctioned sleep primitive for deterministic packages (pacers,
// retry backoff). It returns ctx's error when the wait was cut short.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d) //lint:allow noadhocclock the sleep seam's single real implementation
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stage is one named step of a run. Run mutates the shared state and
// observes ctx: when the runner cancels (first error or caller
// cancellation), in-flight stage work should wind down and return.
type Stage[S any] interface {
	Name() string
	Run(ctx context.Context, st S) error
}

// funcStage adapts a function to the Stage interface.
type funcStage[S any] struct {
	name string
	fn   func(context.Context, S) error
}

func (s funcStage[S]) Name() string                        { return s.name }
func (s funcStage[S]) Run(ctx context.Context, st S) error { return s.fn(ctx, st) }

// NewStage builds a Stage from a name and a function.
func NewStage[S any](name string, fn func(context.Context, S) error) Stage[S] {
	return funcStage[S]{name: name, fn: fn}
}

// StageResult records one executed stage: its wall time and outcome.
// Stages the run never reached (after a failure or cancellation) have no
// entry.
type StageResult struct {
	Name string
	Wall time.Duration
	Err  error
}

// Runner executes a stage graph sequentially over a shared state.
type Runner[S any] struct {
	// Env is the shared run environment (an empty Env if nil).
	Env *Env
	// Stages run in declaration order; the first failure cancels the run.
	Stages []Stage[S]
}

// Run executes the graph. Every executed stage is recorded (the failing
// stage included, with its error); on the first stage error the run's
// context is cancelled — tearing down anything the earlier stages left
// running, e.g. servers draining behind the serve stage — and the error
// is returned wrapped with the stage name. A ctx already cancelled
// between stages short-circuits with ctx.Err(), so callers observe clean
// context errors from mid-run cancellation.
func (r *Runner[S]) Run(ctx context.Context, st S) ([]StageResult, error) {
	env := r.Env
	if env == nil {
		env = &Env{}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]StageResult, 0, len(r.Stages))
	for _, stage := range r.Stages {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		start := env.now()
		err := stage.Run(ctx, st)
		results = append(results, StageResult{
			Name: stage.Name(),
			Wall: env.now().Sub(start),
			Err:  err,
		})
		if err != nil {
			cancel()
			return results, fmt.Errorf("engine: stage %s: %w", stage.Name(), err)
		}
	}
	return results, nil
}
