// Package runner is the execution engine behind every sweep: a
// context-first scheduler that runs many independent simulations in
// parallel while surviving the failure modes long batch jobs actually hit.
//
//   - Cancellation: Map honors its context. A SIGINT/SIGTERM or timeout
//     stops every in-flight run within one detector period (sim.RunContext
//     polls on the DetectEvery cadence), drains the queue marking unstarted
//     work as cancelled, and returns partial results with sinks flushed.
//   - Isolation: a panicking run fails only its own Point — the panic value
//     and goroutine stack are captured into a *PanicError — instead of
//     killing the whole sweep.
//   - Memoization: with a Cache attached, each completed Point is persisted
//     under the SHA-256 of its canonically encoded configuration, so an
//     interrupted or repeated sweep skips every already-finished run; its
//     hits are served on every core before the first run starts.
//
// Map is the one point life cycle in the codebase: look up, run, classify,
// store. The CLIs and the experiments call it for whole sweeps, and the sweep
// service for one point at a time, in fleet and in-process workers alike.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Status classifies how a Point reached its final state.
type Status string

// Point statuses.
const (
	// Done: the run executed to completion in this invocation.
	Done Status = "done"
	// Cached: the result was served from the cache without running.
	Cached Status = "cached"
	// Failed: the run returned an error or panicked (see PanicError).
	Failed Status = "failed"
	// Cancelled: the context ended first. A cancelled Point that was
	// in-flight carries its partial Result (Result.Interrupted set); one
	// that never started has a nil Result.
	Cancelled Status = "cancelled"
)

// Point is the outcome of one scheduled configuration.
type Point struct {
	// Index is the configuration's position in the Map input.
	Index int
	// Load echoes the configuration's offered load (sweep tables key on it).
	Load float64
	// Result is the measurement, nil when the run failed or never started.
	Result *stats.Result
	// Err is non-nil for Failed and Cancelled points.
	Err error
	// Status classifies the outcome.
	Status Status
	// Key is the configuration's content address (see Key). Map sets it on
	// every point when a Cache is attached, having hashed the configuration
	// once for the lookup, the store write and whoever reports the point.
	Key string
	// Raw is Result's canonical encoding exactly as the store holds it:
	// the bytes a cache hit was decoded from, or the bytes a completed run
	// persisted. Map sets it on Cached and Done points when a Cache is
	// attached; nil otherwise. Read-only — the store's index shares it.
	Raw json.RawMessage
}

// FirstError returns the first error among points, annotated with its load.
func FirstError(points []Point) error {
	for _, p := range points {
		if p.Err != nil {
			return fmt.Errorf("load %.3f: %w", p.Load, p.Err)
		}
	}
	return nil
}

// SaturationLoad returns the lowest load whose run saturated, or +Inf if
// none did (the paper marks it as a vertical dashed line).
func SaturationLoad(points []Point) float64 {
	for _, p := range points {
		if p.Err == nil && p.Result.Saturated {
			return p.Load
		}
	}
	return math.Inf(1)
}

// Options tunes Map.
type Options struct {
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS). It does not
	// bound cache lookups, which are not runs: Map serves hits on up to
	// GOMAXPROCS goroutines whatever it is.
	Parallelism int
	// OnDone, if non-nil, is called once as each point settles — cache
	// hits, then runs and cancellations — from whichever goroutine settled
	// it, the caller's among them, so it must be concurrency-safe. Every
	// hit's call has returned before the first run starts.
	OnDone func(i int, p Point)
	// Cache, if non-nil, serves previously completed configurations
	// without re-running them and persists new completions.
	Cache *Cache
	// Run overrides the per-run executor (tests inject failures and
	// panics); nil means sim.RunContext.
	Run func(ctx context.Context, c sim.Config) (*stats.Result, error)
}

// PanicError is a recovered per-run panic: the run's Point fails with this
// error while the rest of the sweep continues.
type PanicError struct {
	Value interface{} // the recovered panic value
	Stack []byte      // the panicking goroutine's stack
}

// Error summarizes the panic; the full stack is in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked: %v\n%s", e.Value, e.Stack)
}

// Map executes every configuration under ctx and returns one Point per
// configuration in input order, always len(cfgs) of them, settled in two
// stages. With a Cache attached, the lookup stage hashes and looks up every
// configuration, over chunks of lookupChunk spread across up to GOMAXPROCS
// goroutines (on the caller alone when there is one chunk): a hit settles
// there, decoded, and a miss keeps its key. Only once every hit has settled
// does the run stage execute the rest, starting them in input order on up to
// Parallelism goroutines; once ctx is cancelled, in-flight runs stop within
// one detector period with partial results and unstarted runs settle as
// Cancelled. The lookup stage does not consult ctx: a hit is not a run.
func Map(ctx context.Context, cfgs []sim.Config, o Options) []Point {
	if ctx == nil {
		ctx = context.Background()
	}
	pts := make([]Point, len(cfgs))
	settle := func(i int, p Point) {
		pts[i] = p
		if o.OnDone != nil {
			o.OnDone(i, p)
		}
	}
	if o.Cache != nil {
		fanOut(len(cfgs), lookupChunk, runtime.GOMAXPROCS(0), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				key := Key(cfgs[i])
				if raw, res, ok := o.Cache.get(key); ok {
					settle(i, Point{Index: i, Load: cfgs[i].Load, Result: res, Status: Cached, Key: key, Raw: raw})
				} else {
					pts[i].Key = key // for runOne: the one hash serves the store write too
				}
			}
		})
	}
	var pending []int // the misses, or every configuration when there is no cache
	for i := range pts {
		if pts[i].Status != Cached {
			pending = append(pending, i)
		}
	}
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	fanOut(len(pending), 1, par, func(j, _ int) {
		i := pending[j]
		settle(i, runOne(ctx, i, pts[i].Key, cfgs[i], o))
	})
	return pts
}

// lookupChunk is how many configurations a goroutine of Map's lookup stage
// takes at a time. A hit costs a few microseconds, so a chunk pays for a
// goroutine many times over, and a Map of one chunk — a single point, a
// small sweep — stays on the caller's goroutine.
const lookupChunk = 32

// fanOut calls do(lo, hi) for each of the consecutive chunks [lo, hi) of
// [0, n), all of size chunk but the last, and returns once every call has
// returned. The chunks are handed out in order off an atomic counter to
// min(par, chunks) goroutines, the caller's among them; with one, they run
// in turn on the caller's alone, and nothing is allocated for the fan-out.
func fanOut(n, chunk, par int, do func(lo, hi int)) {
	chunks := (n + chunk - 1) / chunk
	if par = min(par, chunks); par <= 1 {
		for lo := 0; lo < n; lo += chunk {
			do(lo, min(lo+chunk, n))
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			do(c*chunk, min(c*chunk+chunk, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(par - 1)
	for w := 1; w < par; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runOne executes one configuration with panic isolation; completed runs
// are persisted to the cache under key, and carry the bytes as Raw only
// once the store holds them.
func runOne(ctx context.Context, i int, key string, cfg sim.Config, o Options) (p Point) {
	p = Point{Index: i, Load: cfg.Load, Key: key}
	if err := ctx.Err(); err != nil {
		p.Status, p.Err = Cancelled, err
		return p
	}
	defer func() {
		if v := recover(); v != nil {
			p.Result = nil
			p.Status = Failed
			p.Err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	run := o.Run
	if run == nil {
		run = sim.RunContext
	}
	res, err := run(ctx, cfg)
	switch {
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// An executor that reports its context's end as an error was cancelled.
		p.Status, p.Err = Cancelled, err
	case err != nil:
		p.Status, p.Err = Failed, err
	case res.Interrupted:
		p.Result = res
		p.Status, p.Err = Cancelled, ctx.Err()
		if p.Err == nil {
			// A custom executor flagged interruption itself.
			p.Err = context.Canceled
		}
	default:
		p.Result, p.Status = res, Done
		if o.Cache != nil {
			p.Raw = o.Cache.put(key, res)
		}
	}
	return p
}
