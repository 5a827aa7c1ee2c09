// Package core is the library's public face: it re-exports the simulation
// configuration and result types and provides the sweep machinery — running
// many independent, deterministic simulations in parallel — that the
// paper's experiments, the CLI tools and the examples are built on. The
// sweep APIs are context-first and delegate to the resilient execution
// engine in internal/runner: cancellation stops in-flight runs within one
// detector period, a panicking run fails only its own point, and an
// attached result cache skips every already-completed configuration.
//
// Quickstart:
//
//	cfg := core.DefaultConfig()
//	cfg.Routing = "dor"
//	cfg.Load = 0.6
//	res, err := core.Run(cfg)
//	fmt.Println(res.NormalizedDeadlocks())
//
// For a load sweep (one run per offered load, in parallel, Ctrl-C safe):
//
//	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
//	defer stop()
//	points := core.LoadSweep(ctx, cfg, core.Loads(0.1, 1.2, 0.1))
package core

import (
	"context"
	"fmt"
	"math"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// Config is the simulation configuration (see sim.Config for field docs).
type Config = sim.Config

// Result is the per-run measurement record.
type Result = stats.Result

// Table renders experiment output.
type Table = stats.Table

// Point is one sweep outcome (see runner.Point: Load, Result, Err, Status).
type Point = runner.Point

// Status classifies how a Point settled.
type Status = runner.Status

// Point statuses (see runner for semantics).
const (
	StatusDone      = runner.Done
	StatusCached    = runner.Cached
	StatusFailed    = runner.Failed
	StatusCancelled = runner.Cancelled
)

// Cache is the content-addressed result cache (see runner.Cache).
type Cache = runner.Cache

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) { return runner.Open(dir) }

// CacheKey returns the content address a configuration caches under (the
// SHA-256 of its canonical encoding; see runner.Key).
func CacheKey(c Config) string { return runner.Key(c) }

// DefaultConfig returns the paper's default configuration (16-ary 2-cube,
// bidirectional, 32-flit messages, 2-flit buffers, detector every 50
// cycles).
func DefaultConfig() Config { return sim.Default() }

// QuickConfig returns a scaled-down configuration for fast runs.
func QuickConfig() Config { return sim.Quick() }

// Run executes one simulation.
func Run(c Config) (*Result, error) { return sim.Run(c) }

// RunContext executes one simulation under ctx; on cancellation it returns
// the partial result with Result.Interrupted set (see sim.RunContext).
func RunContext(ctx context.Context, c Config) (*Result, error) {
	return sim.RunContext(ctx, c)
}

// MustRun executes one simulation and panics on configuration error
// (examples and benchmarks with constant configs).
func MustRun(c Config) *Result {
	r, err := sim.Run(c)
	if err != nil {
		panic(err)
	}
	return r
}

// Loads returns {from, from+step, ...} up to and including to (within half a
// step of floating error).
func Loads(from, to, step float64) []float64 { return specv1.Loads(from, to, step) }

// Option configures a sweep (RunAll / LoadSweep).
type Option func(*runner.Options)

// WithParallelism bounds concurrent simulations (0 = GOMAXPROCS, the
// default).
func WithParallelism(p int) Option {
	return func(o *runner.Options) { o.Parallelism = p }
}

// WithOnDone installs a per-point completion callback, invoked as each
// point settles — completed, cached, failed or cancelled — from worker
// goroutines, so it must be concurrency-safe.
func WithOnDone(f func(i int, p Point)) Option {
	return func(o *runner.Options) { o.OnDone = f }
}

// WithCache attaches a content-addressed result cache: configurations with
// a persisted result settle instantly as StatusCached, and new completions
// are persisted for the next invocation.
func WithCache(c *Cache) Option {
	return func(o *runner.Options) { o.Cache = c }
}

// RunAll executes every configuration under ctx, in parallel, preserving
// order. It always returns one Point per configuration; on cancellation,
// in-flight runs stop within one detector period (partial Result,
// StatusCancelled) and unstarted ones settle as StatusCancelled with a nil
// Result.
func RunAll(ctx context.Context, configs []Config, opts ...Option) []Point {
	var o runner.Options
	for _, opt := range opts {
		opt(&o)
	}
	return runner.Map(ctx, configs, o)
}

// LoadSweep runs base at each offered load under ctx, in parallel. The
// expansion (including the deterministic per-point seed) is the versioned v1
// rule in specv1.ExpandLoads, so a local sweep and the sweep service
// enumerate identical configurations and share one content-addressed store.
// Base's runtime plumbing (tracers, sinks) is carried into every point.
func LoadSweep(ctx context.Context, base Config, loads []float64, opts ...Option) []Point {
	return RunAll(ctx, specv1.ExpandLoads(base, loads), opts...)
}

// RunSpec expands a versioned sweep spec and executes its points under ctx —
// the library form of submitting the spec to a sweep service.
func RunSpec(ctx context.Context, spec *specv1.Spec, opts ...Option) ([]Point, error) {
	configs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	return RunAll(ctx, configs, opts...), nil
}

// PointResults converts settled sweep points into their wire form, keyed by
// each configuration's content address. A point that carries the Key and
// Raw runner.Map gave it (any sweep run with a cache) is reported with
// exactly those — the store's own bytes, so a cached point costs nothing
// here and local and service results stay byte-identical. A point built
// without them (a cacheless sweep, a hand-assembled Point) is keyed and
// encoded canonically instead.
func PointResults(configs []Config, points []Point) ([]specv1.PointResult, error) {
	if len(configs) != len(points) {
		return nil, fmt.Errorf("core: %d configs for %d points", len(configs), len(points))
	}
	out := make([]specv1.PointResult, len(points))
	for i, p := range points {
		pr := specv1.PointResult{
			SchemaVersion: specv1.Version,
			Index:         i,
			Load:          p.Load,
			Key:           p.Key,
			Result:        p.Raw,
		}
		if pr.Key == "" {
			pr.Key = runner.Key(configs[i])
		}
		switch p.Status {
		case StatusCached:
			pr.Status = specv1.StatusCached
		case StatusFailed:
			pr.Status = specv1.StatusFailed
		case StatusCancelled:
			pr.Status = specv1.StatusCancelled
		default:
			pr.Status = specv1.StatusDone
		}
		if p.Err != nil {
			pr.Error = p.Err.Error()
		}
		if pr.Result == nil {
			raw, err := specv1.EncodeResult(p.Result)
			if err != nil {
				return nil, err
			}
			pr.Result = raw
		}
		out[i] = pr
	}
	return out, nil
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
