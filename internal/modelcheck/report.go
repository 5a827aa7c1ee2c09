package modelcheck

// Grid runner and JSON report. The report is the committed artifact of a
// verification run: per-configuration state counts, divergence tallies,
// timeout cross-validation tables and wall time.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Report aggregates a grid run.
type Report struct {
	// Grid names the configuration set ("short", "full", "custom").
	Grid    string          `json:"grid"`
	Configs []*ConfigResult `json:"configs"`

	TotalStates             int   `json:"total_states"`
	TotalEdges              int   `json:"total_edges"`
	SoundnessDivergences    int   `json:"soundness_divergences"`
	CompletenessDivergences int   `json:"completeness_divergences"`
	Truncated               bool  `json:"truncated"`
	WallMS                  int64 `json:"wall_ms"`
}

// Progress, when non-nil, receives a line per configuration as it
// completes.
type Progress func(format string, args ...interface{})

// RunGrid checks every configuration and aggregates the report. A
// configuration whose check errors aborts the run: the checker's own
// machinery must never fail on a valid configuration. A cancelled ctx stops
// the run between configurations with the context's error.
func RunGrid(ctx context.Context, gridName string, grid []Config, opts Options, progress Progress) (*Report, error) {
	rep := &Report{Grid: gridName}
	t0 := time.Now()
	for _, cfg := range grid {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c0 := time.Now()
		res, err := Run(cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: %s: %w", cfg.Name(), err)
		}
		res.WallMS = time.Since(c0).Milliseconds()
		rep.Configs = append(rep.Configs, res)
		rep.TotalStates += res.States
		rep.TotalEdges += res.Edges
		rep.SoundnessDivergences += res.SoundnessDivergences
		rep.CompletenessDivergences += res.CompletenessDivergences
		rep.Truncated = rep.Truncated || res.Truncated
		if progress != nil {
			progress("%-40s %8d states %7d edges  sound=%d complete=%d stuck=%d knot=%d%s  %dms",
				cfg.Name(), res.States, res.Edges,
				res.SoundnessDivergences, res.CompletenessDivergences,
				res.StuckStates, res.KnotStates,
				map[bool]string{true: " TRUNCATED", false: ""}[res.Truncated],
				res.WallMS)
		}
	}
	rep.WallMS = time.Since(t0).Milliseconds()
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
