package detect

// Timeout-based deadlock approximation, for contrast with true detection.
//
// Practical recovery schemes (Disha, compressionless routing — the paper's
// references [4,5]) do not detect deadlock exactly: they presume any message
// blocked longer than a threshold to be deadlocked. The paper's motivation
// is that such approximations "provided little insight into the frequency of
// true deadlocks". This file quantifies that gap: at each detection pass,
// every configured threshold is evaluated against the ground truth from knot
// analysis, cross-tabulating flagged messages into true deadlock-set
// members, dependent messages (blocked on a deadlock but whose removal would
// not resolve it) and false positives (transiently blocked, no deadlock
// involvement at all).

import (
	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// TimeoutCounts aggregates one threshold's approximation quality across a
// run's detection passes.
type TimeoutCounts struct {
	// Threshold is the blocked-duration cutoff in cycles.
	Threshold int64
	// Flagged counts messages whose blocked time reached the threshold at
	// a detection pass (message-observations; a long-blocked message
	// counts once per pass, mirroring how a timeout scheme would keep
	// presuming it deadlocked).
	Flagged int64
	// TrueDeadlocked counts flagged messages that were members of a true
	// deadlock set at that pass.
	TrueDeadlocked int64
	// Dependent counts flagged messages that were dependent on a true
	// deadlock (recovery-eligible by timeout schemes, but removing them
	// cannot resolve the deadlock).
	Dependent int64
	// FalsePositive counts flagged messages with no deadlock involvement:
	// congestion-blocked messages a timeout scheme would needlessly kill.
	FalsePositive int64
	// MissedDeadlocked counts true deadlock-set members NOT yet flagged
	// (blocked for less than the threshold): detection latency misses.
	MissedDeadlocked int64
}

// Precision returns TrueDeadlocked / Flagged (1 when nothing was flagged).
func (c TimeoutCounts) Precision() float64 {
	if c.Flagged == 0 {
		return 1
	}
	return float64(c.TrueDeadlocked) / float64(c.Flagged)
}

// Recall returns the fraction of true deadlock-set observations the timeout
// flagged (1 when there were none).
func (c TimeoutCounts) Recall() float64 {
	total := c.TrueDeadlocked + c.MissedDeadlocked
	if total == 0 {
		return 1
	}
	return float64(c.TrueDeadlocked) / float64(total)
}

// compareTimeouts evaluates every configured threshold against the ground
// truth of one analysis pass and folds the counts into d.Timeout.
func (d *Detector) compareTimeouts(an *cwg.Analysis) {
	if len(d.cfg.TimeoutThresholds) == 0 {
		return
	}
	if len(d.Timeout) != len(d.cfg.TimeoutThresholds) {
		d.Timeout = make([]TimeoutCounts, len(d.cfg.TimeoutThresholds))
		for i, th := range d.cfg.TimeoutThresholds {
			d.Timeout[i].Threshold = th
		}
	}
	if d.inSet == nil {
		d.inSet, d.dependent = make(map[message.ID]bool), make(map[message.ID]bool)
	}
	inSet, dependent := d.inSet, d.dependent
	clear(inSet)
	clear(dependent)
	for i := range an.Deadlocks {
		for _, id := range an.Deadlocks[i].DeadlockSet {
			inSet[id] = true
		}
		for _, id := range an.Deadlocks[i].Dependent {
			dependent[id] = true
		}
	}
	now := d.net.Now()
	for _, m := range d.net.ActiveUnsorted() { // sums: order does not matter
		if !m.Blocked || m.Status != message.Active {
			continue
		}
		blockedFor := now - m.BlockedSince
		for i, th := range d.cfg.TimeoutThresholds {
			c := &d.Timeout[i]
			if blockedFor >= th {
				c.Flagged++
				switch {
				case inSet[m.ID]:
					c.TrueDeadlocked++
				case dependent[m.ID]:
					c.Dependent++
				default:
					c.FalsePositive++
				}
			} else if inSet[m.ID] {
				c.MissedDeadlocked++
			}
		}
	}
}
