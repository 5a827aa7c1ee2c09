package modelcheck

// The verdict comparator: run the REAL detection pipeline (RestoreState'd
// network -> detect.Detector -> knot-freedom proof -> cwg.MsgGraph knot
// analysis) on every enumerated state and compare its verdict against the
// explorer's ground-truth liveness DP.
//
//	soundness divergence:    a reported knot's deadlock set contains a
//	                         message the DP proves live. Valid even under
//	                         truncation (live is an under-approximation,
//	                         so a set live bit is definite).
//	completeness divergence: a COMPLETE state has a ground-truth stuck
//	                         message that some continuation never reports.
//
// Completeness is deliberately an EVENTUALLY property (the CTL "AF" of
// being reported). The knot is a predicate on the current state, and a
// deadlock can be inevitable moves before it has formed: in the classic
// 3-message ring cycle there are states where two messages are already
// doomed while the third — whose channel closes the cycle — is still
// advancing toward its blocking position. No knot exists in such a LATENT
// state, and a state-predicate detector is right to stay quiet; what it
// must guarantee is that every continuation reaches a state where the
// stuck message appears in a knot's deadlock set or its dependent set.
// That is the property checked here, by a backward all-successors DP over
// the detector's own per-state verdicts. Latent states are tallied
// separately as an informational metric (the detection latency the paper's
// dynamic detector inherently has).
//
// Divergent states are minimized by greedy message removal before being
// emitted as repro files. When a configuration produces no divergences (the
// expected outcome) and does reach true deadlocks, one minimized deadlock
// state is emitted as an "exemplar" repro instead, so every grid run leaves
// replayable artifacts behind.

import (
	"fmt"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// Options tunes a model-checking run.
type Options struct {
	// MaxStates caps per-configuration state expansions; exploration past
	// the cap truncates (soundness checking remains valid, completeness
	// checking is restricted to complete states).
	MaxStates int
	// MinimizeStates caps exploration during counterexample minimization.
	MinimizeStates int
	// Thresholds are the timeout-heuristic thresholds to cross-validate,
	// in moves of continuous blockage (the abstract analog of cycles).
	Thresholds []int
	// NoExemplars suppresses the minimized true-deadlock repro otherwise
	// emitted per configuration that reaches one.
	NoExemplars bool
	// MaxDivergences caps the divergences *recorded* per configuration
	// (all are still counted).
	MaxDivergences int
}

// DefaultOptions returns the options the CLI and tests start from.
func DefaultOptions() Options {
	return Options{
		MaxStates:      150000,
		MinimizeStates: 50000,
		Thresholds:     []int{1, 2, 4, 8, 16},
		MaxDivergences: 5,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxStates <= 0 {
		o.MaxStates = d.MaxStates
	}
	if o.MinimizeStates <= 0 {
		o.MinimizeStates = d.MinimizeStates
	}
	if len(o.Thresholds) == 0 {
		o.Thresholds = d.Thresholds
	}
	if o.MaxDivergences <= 0 {
		o.MaxDivergences = d.MaxDivergences
	}
	return o
}

// Divergence is one detector-vs-ground-truth disagreement.
type Divergence struct {
	// Kind is "soundness" or "completeness".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Repro is the minimized counterexample.
	Repro *Repro `json:"repro"`
}

// TimeoutRow cross-validates one timeout threshold against ground truth
// over every (complete state, blocked message) observation.
type TimeoutRow struct {
	Threshold      int     `json:"threshold"`
	Observations   int     `json:"observations"`
	Flagged        int     `json:"flagged"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	FalseNegatives int     `json:"false_negatives"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
}

// ConfigResult is the outcome of checking one configuration.
type ConfigResult struct {
	Config Config `json:"config"`

	States        int  `json:"states"`
	Edges         int  `json:"edges"`
	InitialStates int  `json:"initial_states"`
	Truncated     bool `json:"truncated"`
	// CompleteStates counts states whose entire reachable subgraph was
	// explored (completeness checking applies only to these).
	CompleteStates int `json:"complete_states"`
	// BlockedStates counts states with at least one blocked message (the
	// only states the detector can report anything on).
	BlockedStates int `json:"blocked_states"`
	// StuckStates counts complete states with a ground-truth stuck message.
	StuckStates int `json:"stuck_states"`
	// KnotStates counts states where the detector reported >= 1 knot.
	KnotStates int `json:"knot_states"`
	// LatentStates counts complete states with a stuck message but no knot
	// yet: the deadlock is inevitable but has not finished forming. These
	// are NOT divergences (every continuation still reports); they measure
	// the detector's inherent formation latency.
	LatentStates int `json:"latent_states"`

	SoundnessDivergences    int          `json:"soundness_divergences"`
	CompletenessDivergences int          `json:"completeness_divergences"`
	Divergences             []Divergence `json:"divergences,omitempty"`

	Timeout []TimeoutRow `json:"timeout,omitempty"`

	// Exemplar is a minimized true-deadlock state (detector and ground
	// truth agree), present when the configuration reaches one.
	Exemplar *Repro `json:"exemplar,omitempty"`

	WallMS int64 `json:"wall_ms"`
}

// runner bundles the per-configuration working state of a check.
type runner struct {
	sy      *system
	ex      *explorer
	opts    Options
	owners  []int8
	wantBuf []message.VC

	// Per-state detector verdicts and DPs (indexed like ex.states):
	// flagged = messages in some knot's DeadlockSet or Dependent set;
	// ef      = "all continuations eventually flag" (the AF DP);
	// hasKnot = detector reported >= 1 knot;
	// sound   = a DeadlockSet member is provably live (soundness breach).
	flagged []uint8
	ef      []uint8
	hasKnot []bool
	sound   []bool
}

// Run checks one configuration: explore, compare the detector's verdicts
// against ground truth on every state, cross-validate the timeout
// heuristic, and minimize anything divergent. WallMS is left to the caller
// (the report layer owns the clock).
func Run(cfg Config, opts Options) (*ConfigResult, error) {
	opts = opts.withDefaults()
	sy, err := cfg.build()
	if err != nil {
		return nil, err
	}
	ex := newExplorer(sy, opts.MaxStates)
	if err := ex.explore(sy.initialStates()); err != nil {
		return nil, err
	}
	r := newRunner(sy, ex, opts)
	if err := r.computeVerdicts(); err != nil {
		return nil, err
	}
	return r.judge()
}

func newRunner(sy *system, ex *explorer, opts Options) *runner {
	return &runner{
		sy:      sy,
		ex:      ex,
		opts:    opts,
		owners:  make([]int8, sy.net.TotalVCs()),
		wantBuf: make([]message.VC, 0, 8),
	}
}

// analyze loads state idx into the real network and runs the simulator's
// detection pass on it: the knot-freedom proof, then the graph when the
// proof fails. RestoreState bumps the resource epoch, so the change gate
// never answers for a restored state.
func (r *runner) analyze(idx int32) (cwg.Analysis, error) {
	s := decodeState(r.ex.states[idx].key, r.sy.cfg.Messages)
	s.owners(r.owners)
	if err := r.sy.restore(&s, r.owners, r.wantBuf); err != nil {
		return cwg.Analysis{}, err
	}
	return r.sy.det.DetectNow(), nil
}

// computeVerdicts runs the real detector over every blocked expanded state,
// records per-state flagged/knot/soundness verdicts, then computes the AF
// "eventually flagged" DP in post-order: a message is eventually flagged in
// s iff it is flagged in s, or s has successors and EVERY successor
// eventually flags it. Truncated frontier states contribute nothing
// (unknown), which only weakens claims about incomplete states — and those
// are never judged for completeness.
func (r *runner) computeVerdicts() error {
	n := len(r.ex.states)
	r.flagged = make([]uint8, n)
	r.ef = make([]uint8, n)
	r.hasKnot = make([]bool, n)
	r.sound = make([]bool, n)
	nm := r.sy.cfg.Messages
	for idx := range r.ex.states {
		st := &r.ex.states[idx]
		if !st.expanded || st.blocked == 0 {
			// Without a blocked message the CWG has no dashed arcs, so no
			// knot with an edge can exist; skip the detector entirely.
			continue
		}
		an, err := r.analyze(int32(idx))
		if err != nil {
			return err
		}
		var fl uint8
		for di := range an.Deadlocks {
			dl := &an.Deadlocks[di]
			for _, id := range dl.DeadlockSet {
				fl |= 1 << uint(int(id))
				if st.live&(1<<uint(int(id))) != 0 {
					r.sound[idx] = true
				}
			}
			for _, id := range dl.Dependent {
				fl |= 1 << uint(int(id))
			}
		}
		r.flagged[idx] = fl
		r.hasKnot[idx] = len(an.Deadlocks) > 0
	}
	for _, idx := range r.ex.post {
		st := &r.ex.states[idx]
		ef := r.flagged[idx]
		if st.expanded && len(st.edges) > 0 {
			acc := uint8(0xFF)
			for i := range st.edges {
				ed := &st.edges[i]
				tgt := r.ef[ed.to]
				var mapped uint8
				for m := 0; m < nm; m++ {
					if tgt&(1<<uint(ed.perm[m])) != 0 {
						mapped |= 1 << uint(m)
					}
				}
				acc &= mapped
			}
			ef |= acc
		}
		r.ef[idx] = ef
	}
	return nil
}

// divergenceKindAt classifies state idx from the stored verdicts:
// "soundness", "completeness" or "" (agreement).
func (r *runner) divergenceKindAt(idx int32) (kind, detail string) {
	st := &r.ex.states[idx]
	if r.sound[idx] {
		return "soundness",
			"a reported knot's deadlock set contains a message the liveness DP proves can still advance"
	}
	stuck := st.blocked &^ st.live
	if st.complete {
		if missed := stuck &^ r.ef[idx]; missed != 0 {
			return "completeness", fmt.Sprintf(
				"ground-truth stuck messages (mask %#x) are never reported (deadlock set or dependent) on some continuation",
				missed)
		}
	}
	return "", ""
}

// judge tallies metrics and divergences over the whole explored graph.
func (r *runner) judge() (*ConfigResult, error) {
	ex, opts := r.ex, r.opts
	res := &ConfigResult{
		Config:    r.sy.cfg,
		States:    len(ex.states),
		Edges:     ex.numEdges,
		Truncated: ex.truncated,
		Timeout:   make([]TimeoutRow, len(opts.Thresholds)),
	}
	for i, t := range opts.Thresholds {
		res.Timeout[i].Threshold = t
	}
	var exemplarIdx int32 = -1
	for idx := range ex.states {
		st := &ex.states[idx]
		if st.initial {
			res.InitialStates++
		}
		if st.complete {
			res.CompleteStates++
		}
		if !st.expanded {
			continue
		}
		if st.blocked != 0 {
			res.BlockedStates++
		}
		if r.hasKnot[idx] {
			res.KnotStates++
		}
		stuck := st.blocked &^ st.live
		if st.complete && stuck != 0 {
			res.StuckStates++
			if !r.hasKnot[idx] {
				res.LatentStates++
			}
			if r.hasKnot[idx] && exemplarIdx < 0 {
				exemplarIdx = int32(idx)
			}
		}
		if st.complete {
			r.tallyTimeout(res, st, stuck)
		}
		kind, detail := r.divergenceKindAt(int32(idx))
		if kind == "" {
			continue
		}
		switch kind {
		case "soundness":
			res.SoundnessDivergences++
		case "completeness":
			res.CompletenessDivergences++
		}
		if len(res.Divergences) < opts.MaxDivergences {
			rep, err := r.minimize(int32(idx), kind)
			if err != nil {
				return nil, err
			}
			rep.Detail = detail + " (minimized)"
			res.Divergences = append(res.Divergences, Divergence{Kind: kind, Detail: detail, Repro: rep})
		}
	}
	for i := range res.Timeout {
		row := &res.Timeout[i]
		if row.TruePositives+row.FalsePositives > 0 {
			row.Precision = float64(row.TruePositives) / float64(row.TruePositives+row.FalsePositives)
		}
		if row.TruePositives+row.FalseNegatives > 0 {
			row.Recall = float64(row.TruePositives) / float64(row.TruePositives+row.FalseNegatives)
		}
	}
	if !opts.NoExemplars && exemplarIdx >= 0 {
		rep, err := r.minimize(exemplarIdx, "exemplar")
		if err != nil {
			return nil, err
		}
		rep.Detail = "minimized true deadlock: ground truth and detector agree (emitted because the configuration has divergence-free deadlocks)"
		res.Exemplar = rep
	}
	return res, nil
}

// tallyTimeout accumulates timeout-heuristic observations for one complete
// state: each blocked message's age (longest continuous blockage on any
// path reaching the state) is thresholded and compared with its
// ground-truth stuck bit.
func (r *runner) tallyTimeout(res *ConfigResult, st *stateInfo, stuck uint8) {
	for m := 0; m < r.sy.cfg.Messages; m++ {
		bit := uint8(1) << uint(m)
		if st.blocked&bit == 0 {
			continue
		}
		isStuck := stuck&bit != 0
		for i := range res.Timeout {
			row := &res.Timeout[i]
			row.Observations++
			flagged := int(st.age[m]) >= row.Threshold
			if flagged {
				row.Flagged++
			}
			switch {
			case flagged && isStuck:
				row.TruePositives++
			case flagged && !isStuck:
				row.FalsePositives++
			case !flagged && isStuck:
				row.FalseNegatives++
			}
		}
	}
}

// reproAt captures state idx as a Repro, rendering the first knot's DOT
// when the detector reports one.
func (r *runner) reproAt(idx int32, kind string) (*Repro, error) {
	st := &r.ex.states[idx]
	s := decodeState(st.key, r.sy.cfg.Messages)
	s.owners(r.owners)
	msgs := r.sy.materialize(&s, r.owners, r.wantBuf)
	rep := &Repro{
		Kind:     kind,
		Config:   r.sy.cfg,
		Messages: msgs,
		Stuck:    st.blocked &^ st.live,
		Live:     st.live,
	}
	if err := r.sy.net.RestoreState(0, msgs); err != nil {
		return nil, err
	}
	g := cwg.Build(r.sy.det.Snapshot())
	an := g.Analyze(cwg.Options{CountKnotCycles: true})
	if len(an.Deadlocks) > 0 {
		rep.KnotDOT = g.KnotDOT(&an.Deadlocks[0], nil)
	}
	return rep, nil
}

// minimize greedily removes messages from state idx while the divergence
// kind (or, for exemplars, the agreed-deadlock property) persists when the
// reduced state is re-explored as an initial state of its own.
func (r *runner) minimize(idx int32, kind string) (*Repro, error) {
	cur := decodeState(r.ex.states[idx].key, r.sy.cfg.Messages)
	curRunner := r
	curIdx := idx
	for len(cur.msgs) > 1 {
		reduced := false
		for drop := 0; drop < len(cur.msgs); drop++ {
			sub := removeMessage(&cur, drop)
			subRunner, subIdx, ok, err := r.checkSubState(sub, kind)
			if err != nil {
				return nil, err
			}
			if ok {
				cur = decodeState(subRunner.ex.states[subIdx].key, len(sub.msgs))
				curRunner, curIdx = subRunner, subIdx
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}
	return curRunner.reproAt(curIdx, kind)
}

// removeMessage drops message i and renormalizes source-queue positions.
func removeMessage(s *state, i int) *state {
	sub := &state{msgs: make([]msgState, 0, len(s.msgs)-1)}
	for j := range s.msgs {
		if j != i {
			sub.msgs = append(sub.msgs, s.msgs[j].clone())
		}
	}
	// Compact each source's queue positions (0, 1, ... with no gaps).
	for mi := range sub.msgs {
		m := &sub.msgs[mi]
		if !m.queued() {
			continue
		}
		rank := int8(0)
		for mj := range sub.msgs {
			o := &sub.msgs[mj]
			if o.queued() && o.src == m.src && (o.qpos < m.qpos || (o.qpos == m.qpos && mj < mi)) {
				rank++
			}
		}
		m.qpos = rank
	}
	return sub
}

// checkSubState explores from sub as the sole initial state of a smaller
// configuration and reports whether the target property still holds there.
func (r *runner) checkSubState(sub *state, kind string) (*runner, int32, bool, error) {
	cfg := r.sy.cfg
	cfg.Messages = len(sub.msgs)
	sy, err := cfg.build()
	if err != nil {
		return nil, 0, false, err
	}
	key, _ := sub.canonicalize()
	ex := newExplorer(sy, r.opts.MinimizeStates)
	if err := ex.explore([]string{key}); err != nil {
		return nil, 0, false, err
	}
	rootIdx := ex.index[key]
	if !ex.states[rootIdx].expanded {
		return nil, 0, false, nil
	}
	nr := newRunner(sy, ex, r.opts)
	if err := nr.computeVerdicts(); err != nil {
		return nil, 0, false, err
	}
	if kind == "exemplar" {
		st := &ex.states[rootIdx]
		stuck := st.blocked &^ st.live
		ok := st.complete && stuck != 0 && nr.hasKnot[rootIdx]
		return nr, rootIdx, ok, nil
	}
	gotKind, _ := nr.divergenceKindAt(rootIdx)
	return nr, rootIdx, gotKind == kind, nil
}
