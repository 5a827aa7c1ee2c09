// Package specv1 is the versioned wire contract of the sweep service: the
// JSON forms of a sweep specification, a point configuration, and a point
// result that charsweep, sweepd and sweepctl all speak. Version 1 is pinned
// by three rules:
//
//   - Every message carries "schema_version": 1 and decodes strictly — an
//     unknown field, a missing/mismatched version or anything after the value
//     is an error, not a silent drop — so client/server skew fails fast at the
//     boundary. Every decoder, sweepsvc's client's too, is decodeStrict's.
//   - PointConfig is sim.Spec (the fields behind the content-addressed cache
//     key) under explicit snake_case names; sim.Instrumentation never
//     travels.
//   - The result payload inside PointResult is the simulator's canonical
//     stats.Result encoding — the same bytes the content-addressed store
//     has persisted since the cache was introduced — so results served from
//     the store, returned by a fleet worker, and produced by a local
//     charsweep run of the same spec are byte-comparable.
//
// Sweep expansion semantics (base × loads with per-point seed decorrelation)
// live here too, because they are part of the contract: a coordinator and a
// local CLI expanding the same spec must enumerate identical configurations
// or the shared store would never dedupe across them.
package specv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"

	"flexsim/internal/jsonlog"
	"flexsim/internal/sim"
)

// Version is the wire schema version this package speaks.
const Version = 1

// Spec is a sweep specification: either an explicit list of points, or a
// base configuration crossed with a list of offered loads (the common
// paper-style load sweep). Exactly one of Points / (Base, Loads) must be
// set.
type Spec struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name,omitempty"`
	// Base and Loads describe a load sweep: Base is run once per load, with
	// a per-point seed derived from Base.Seed and the point index (see
	// PointSeed) so results are reproducible regardless of scheduling.
	Base  *PointConfig `json:"base,omitempty"`
	Loads []float64    `json:"loads,omitempty"`
	// Points lists explicit configurations, run as given.
	Points []PointConfig `json:"points,omitempty"`
}

// Validate checks the schema version and the point/base-loads exclusivity.
func (s *Spec) Validate() error {
	if s.SchemaVersion != Version {
		return fmt.Errorf("specv1: schema_version %d, want %d", s.SchemaVersion, Version)
	}
	switch {
	case len(s.Points) > 0:
		if s.Base != nil || len(s.Loads) > 0 {
			return errors.New("specv1: points and base/loads are mutually exclusive")
		}
	case s.Base == nil:
		return errors.New("specv1: spec needs either points or base+loads")
	case len(s.Loads) == 0:
		return errors.New("specv1: base without loads; add a loads list")
	}
	return nil
}

// Configs expands the spec into the runnable configurations it denotes, in
// wire order.
func (s *Spec) Configs() ([]sim.Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Points) > 0 {
		cfgs := make([]sim.Config, len(s.Points))
		for i, p := range s.Points {
			cfgs[i] = p.ToSim()
		}
		return cfgs, nil
	}
	return ExpandLoads(s.Base.ToSim(), s.Loads), nil
}

// NumPoints returns the number of points the spec expands to (0 if invalid).
func (s *Spec) NumPoints() int {
	if len(s.Points) > 0 {
		return len(s.Points)
	}
	return len(s.Loads)
}

// LoadSpec builds a load-sweep spec from a configuration and loads.
func LoadSpec(name string, base sim.Config, loads []float64) *Spec {
	b := FromSim(base)
	return &Spec{SchemaVersion: Version, Name: name, Base: &b, Loads: loads}
}

// ExpandLoads enumerates a load sweep over base: one configuration per
// load, each with a deterministic per-point seed derived from the base seed
// and the point index. This is the v1 expansion rule shared by a Base+Loads
// spec, every load sweep an experiment plans and the sweep service;
// changing it would re-key every cached sweep result.
func ExpandLoads(base sim.Config, loads []float64) []sim.Config {
	cfgs := make([]sim.Config, len(loads))
	for i, l := range loads {
		c := base
		c.Load = l
		c.Seed = PointSeed(base.Seed, i)
		cfgs[i] = c
	}
	return cfgs
}

// PointSeed decorrelates per-point seeds (one SplitMix64 step over the base
// seed and the point index).
func PointSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Loads returns {from, from+step, ...} up to and including to (within half
// a step of floating error) — the spec-side form of a dense load axis.
func Loads(from, to, step float64) []float64 {
	var out []float64
	for l := from; l <= to+step/2; l += step {
		out = append(out, math.Round(l*1e9)/1e9)
	}
	return out
}

// ParseLoads parses a comma-separated load list such as "0.2,0.6,1.0".
func ParseLoads(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		l, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("specv1: bad load %q: %v", f, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// DecodeSpec strictly decodes a v1 sweep spec: unknown fields anywhere in
// the document and schema-version mismatches are errors.
func DecodeSpec(r io.Reader) (*Spec, error) {
	s, err := decodeStrict[Spec](r, "spec", nil) // Validate checks the version
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeSpec renders the spec as indented JSON (the file form sweepctl
// writes and users edit).
func EncodeSpec(w io.Writer, s *Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// decodeStrict reads r to its end and decodes the one JSON value in it as a
// T: an unknown field, anything but whitespace after the value, or a version
// (if T has one) not ours is an error. Every decoder is it or ReadResults.
func decodeStrict[T any](r io.Reader, what string, version func(*T) int) (*T, error) {
	v := new(T)
	data, err := readAll(r)
	if err == nil {
		var n int
		if n, err = decodeValue(data, v); err == nil && len(bytes.TrimLeft(data[n:], space)) > 0 {
			err = errors.New("trailing data after JSON value")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("specv1: %s: %w", what, err)
	}
	if version != nil && version(v) != Version {
		return nil, fmt.Errorf("specv1: %s schema_version %d, want %d", what, version(v), Version)
	}
	return v, nil
}

const space = " \t\r\n" // JSON's whitespace

// decodeValue decodes the JSON value data starts with into the zero value v
// points at and returns the index after it: by jsonlog's reader if it can,
// else by encoding/json, its specification, from the same bytes, afresh.
func decodeValue[T any](data []byte, v *T) (int, error) {
	if n := jsonlog.Read(data, v, jsonValue); n >= 0 {
		return n, nil
	}
	*v = *new(T)
	return jsonValue(data, v)
}

// jsonValue is encoding/json, strict, on the value data starts with.
func jsonValue(data []byte, v any) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	return int(dec.InputOffset()), err
}

// readAll is io.ReadAll with the buffer sized up front when r says what it
// holds (a file, a bytes.Reader), not grown from 512 bytes copy by copy.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
