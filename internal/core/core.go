// Package core is what is left of the library's old facade: the ten names
// the benchmark harness under bench/ still compiles against, each forwarding
// to runner or specv1. Nothing else imports it — callers use sim, runner,
// specv1 and stats directly — and the next benchmark PR, which may edit
// bench/, moves the harness onto those packages and deletes this one.
package core

import (
	"context"

	"flexsim/internal/api/specv1"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
)

// Point is runner.Point.
type Point = runner.Point

// StatusDone is runner.Done.
const StatusDone = runner.Done

// Cache is runner.Cache.
type Cache = runner.Cache

// Option sets one field of runner.Options.
type Option func(*runner.Options)

// WithParallelism sets runner.Options.Parallelism.
func WithParallelism(p int) Option { return func(o *runner.Options) { o.Parallelism = p } }

// WithCache sets runner.Options.Cache.
func WithCache(c *Cache) Option { return func(o *runner.Options) { o.Cache = c } }

// RunAll is runner.Map with the options applied.
func RunAll(ctx context.Context, configs []sim.Config, opts ...Option) []Point {
	var o runner.Options
	for _, opt := range opts {
		opt(&o)
	}
	return runner.Map(ctx, configs, o)
}

// RunSpec runs a spec's configurations with RunAll.
func RunSpec(ctx context.Context, spec *specv1.Spec, opts ...Option) ([]Point, error) {
	configs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	return RunAll(ctx, configs, opts...), nil
}

// PointResults is specv1.PointResults.
func PointResults(configs []sim.Config, points []Point) ([]specv1.PointResult, error) {
	return specv1.PointResults(configs, points)
}

// FirstError is runner.FirstError.
func FirstError(points []Point) error { return runner.FirstError(points) }
