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
//     interrupted or repeated sweep skips every already-finished run.
//
// core.RunAll/LoadSweep, the experiment harness and both CLIs all delegate
// here; there is exactly one worker pool in the codebase.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

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

// Options tunes Map.
type Options struct {
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS).
	Parallelism int
	// OnDone, if non-nil, is called as each point settles — including
	// cache hits and cancellations — from worker goroutines, so it must be
	// concurrency-safe.
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

// Map executes every configuration under ctx, in parallel across up to
// Parallelism goroutines, and returns one Point per configuration in input
// order. It always returns len(cfgs) points: cache hits settle first (and
// synchronously), then workers drain the remainder; once ctx is cancelled,
// in-flight runs stop within one detector period with partial results and
// queued runs settle as Cancelled without starting.
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
	pending := make([]int, 0, len(cfgs))
	for i := range cfgs {
		if o.Cache != nil {
			key := Key(cfgs[i])
			if raw, res, ok := o.Cache.get(key); ok {
				settle(i, Point{Index: i, Load: cfgs[i].Load, Result: res, Status: Cached, Key: key, Raw: raw})
				continue
			}
			pts[i].Key = key // for runOne: the one hash serves the store write too
		}
		pending = append(pending, i)
	}
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(pending) {
		par = len(pending)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				settle(i, runOne(ctx, i, pts[i].Key, cfgs[i], o))
			}
		}()
	}
	for _, i := range pending {
		work <- i
	}
	close(work)
	wg.Wait()
	return pts
}

// runOne executes one configuration with panic isolation; completed runs
// are persisted to the cache under key.
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
