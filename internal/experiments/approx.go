package experiments

import (
	"context"
	"fmt"
	"strings"

	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// TimeoutApprox — supplementary study of the paper's motivating claim:
// timeout-based deadlock "detection" (as used by Disha and compressionless
// routing, the paper's references [4,5]) provides little insight into true
// deadlocks. At every true-detection pass, each candidate threshold is
// scored against the knot ground truth: how many timeout-flagged messages
// are actual deadlock-set members, how many are merely dependent, and how
// many are congestion-blocked false positives that a timeout scheme would
// needlessly kill.
//
// Expected shape: at saturating loads, short timeouts flag vastly more
// messages than are ever in true deadlock (precision near zero), and even
// long timeouts cannot reach high precision because congestion blocking
// dominates — while long timeouts also delay recovery (recall drops).
//
// It is a Func, not a Study: the scores live in the detector's timeout
// counters (Detector.Timeout), which no stats.Result carries, so its runs
// cannot be served from a store.
func TimeoutApprox(ctx context.Context, o Options) ([]*stats.Table, error) {
	thresholds := []int64{25, 50, 100, 200, 400, 800}
	load := 1.0
	t := stats.NewTable(fmt.Sprintf("Supplementary: timeout approximation vs true detection (load %.2f)", load),
		"config", "threshold", "flagged", "true_deadlocked", "dependent",
		"false_positive", "precision", "recall")
	for _, spec := range []struct {
		label, alg string
		uni        bool
	}{{"dor1 uni", "dor", true}, {"dor1", "dor", false}, {"tfar1", "tfar", false}} {
		c := o.base()
		c.Routing = spec.alg
		c.Bidirectional = !spec.uni
		c.VCs = 1
		c.Load = load
		c.TimeoutThresholds = thresholds
		// The run's label names its artifact files, one per run.
		c.Label = strings.ReplaceAll(spec.label, " ", "-")
		r, err := sim.NewRunner(c)
		if err != nil {
			return nil, err
		}
		res := r.RunContext(ctx)
		if err := r.CloseArtifacts(); err != nil {
			return nil, err
		}
		if res.Interrupted {
			return nil, ctx.Err()
		}
		for _, tc := range r.Detector.Timeout {
			t.AddRow(spec.label, tc.Threshold, tc.Flagged, tc.TrueDeadlocked,
				tc.Dependent, tc.FalsePositive, tc.Precision(), tc.Recall())
		}
	}
	t.AddNote("flagged = blocked-longer-than-threshold observations at detection passes;")
	t.AddNote("expected shape: precision << 1 at all practical thresholds - most timeout victims are congestion, not deadlock")
	return []*stats.Table{t}, nil
}
