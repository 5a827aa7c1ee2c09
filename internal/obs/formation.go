package obs

// Deadlock formation forensics: a detected deadlock tells us a knot exists
// *now*; the paper's recovery-cost arguments (and Disha-style timeout
// tuning) need to know when it *formed*. The FormationAnalyzer answers that
// by event-sourced replay — it rewinds the network's resource log
// (network.ResourceLog) from the live state back to any covered cycle,
// rebuilding the exact VC ownership and wait relation there, and binary
// searches for the cycle the knot closed. The search is sound because
// knots are permanent until recovery intervenes: once closed, a knot's
// members are frozen, so "knot present at cycle t" is monotone in t over
// the window between formation and detection.

import (
	"cmp"
	"slices"

	"flexsim/internal/cwg"
	"flexsim/internal/detect"
	"flexsim/internal/message"
	"flexsim/internal/network"
)

// trajectoryPoints caps the blocked-set growth samples per incident.
const trajectoryPoints = 8

// Formation holds the formation metrics of one detected deadlock.
type Formation struct {
	// FirstBlocked is the cycle the first deadlock-set member entered its
	// (still current) blocking episode.
	FirstBlocked int64 `json:"first_blocked"`
	// KnotClosed is the earliest replayable cycle at which the detected
	// knot existed, binary-searched via CWG replay.
	KnotClosed int64 `json:"knot_closed"`
	// FormationCycles is KnotClosed - FirstBlocked: how long the deadlock
	// took to assemble after its first member stalled.
	FormationCycles int64 `json:"formation_cycles"`
	// DetectionLag is detection cycle - KnotClosed: how long the closed
	// knot sat undetected (bounded by the detector period plus gating).
	DetectionLag int64 `json:"detection_lag"`
	// ClosedBy is the message whose resource event at KnotClosed completed
	// the knot, or -1 when it cannot be attributed.
	ClosedBy int64 `json:"closed_by"`
	// Truncated reports that the resource ring did not reach back to
	// FirstBlocked, so KnotClosed is an upper bound (the knot may have
	// closed before the ring's horizon).
	Truncated bool `json:"truncated,omitempty"`
	// Trajectory samples the blocked-message buildup between FirstBlocked
	// and detection: total blocked messages and blocked deadlock-set
	// members at evenly spaced replay cycles.
	Trajectory []FormationPoint `json:"trajectory,omitempty"`
}

// FormationPoint is one sample of the blocked-set growth trajectory.
type FormationPoint struct {
	Cycle   int64 `json:"cycle"`
	Blocked int   `json:"blocked"`
	Members int   `json:"members"`
}

// FormationAnalyzer reconstructs CWGs at earlier cycles by rewinding the
// network's resource log from the live state, and derives per-deadlock
// formation metrics. It is owned by one run and not safe for concurrent
// use; analyses run between simulation steps (the detector's Observer hook
// fires before recovery mutates the deadlock).
type FormationAnalyzer struct {
	net *network.Network
	log *network.ResourceLog

	evBuf []network.ResourceEvent
	graph *cwg.MsgGraph // knotAt's, rebuilt per probe
}

// NewFormationAnalyzer builds an analyzer over a network and the resource
// log attached to it.
func NewFormationAnalyzer(net *network.Network, log *network.ResourceLog) *FormationAnalyzer {
	return &FormationAnalyzer{net: net, log: log}
}

// MinReplayCycle returns the earliest cycle the analyzer can reconstruct
// (see network.ResourceLog.MinReplayCycle).
func (a *FormationAnalyzer) MinReplayCycle() int64 { return a.log.MinReplayCycle() }

// rewind reconstructs the CWG snapshot at the end of cycle t by applying the
// inverse of every logged event after t, newest first, to the live state's
// snapshot. Blocked flags and candidate sets restore from the wants
// recorded on block/unblock events; ownership restores by popping acquires
// and re-prepending releases (releases are front-first, so prepending in
// reverse event order rebuilds the acquisition-ordered path, resurrecting
// messages that retired inside the window). The snapshot holds the messages
// owning a VC at t, sorted by id.
func (a *FormationAnalyzer) rewind(t int64) []cwg.Msg {
	msgs, _ := detect.AppendSnapshot(nil, nil, a.net.ActiveMessages())
	at := make(map[message.ID]int, len(msgs))
	for i := range msgs {
		at[msgs[i].ID] = i
	}
	get := func(id message.ID) *cwg.Msg {
		i, ok := at[id]
		if !ok { // retired inside the window
			var r cwg.Msg
			r.ID = id
			i, msgs = len(msgs), append(msgs, r)
			at[id] = i
		}
		return &msgs[i]
	}
	a.evBuf = a.log.Events(a.evBuf[:0])
	for i := len(a.evBuf) - 1; i >= 0; i-- {
		e := &a.evBuf[i]
		if e.Cycle <= t {
			break
		}
		switch e.Kind {
		case network.ResAcquire:
			r := get(e.Msg)
			if n := len(r.Owned); n > 0 && r.Owned[n-1] == e.VC {
				r.Owned = r.Owned[:n-1]
			}
		case network.ResRelease:
			r := get(e.Msg)
			r.Owned = append(r.Owned, 0)
			copy(r.Owned[1:], r.Owned)
			r.Owned[0] = e.VC
		case network.ResBlock:
			r := get(e.Msg)
			r.Blocked, r.Wants = false, nil
		case network.ResUnblock:
			r := get(e.Msg)
			r.Blocked, r.Wants = true, e.Wants
		}
	}
	msgs = slices.DeleteFunc(msgs, func(m cwg.Msg) bool { return len(m.Owned) == 0 })
	slices.SortFunc(msgs, func(x, y cwg.Msg) int { return cmp.Compare(x.ID, y.ID) })
	return msgs
}

// CWGAt rebuilds the channel wait-for graph as it stood at the end of
// cycle t. It returns false when t is outside the replayable window
// (after the current cycle, or before the resource ring's horizon).
func (a *FormationAnalyzer) CWGAt(t int64) (*cwg.Graph, bool) {
	if a == nil || t > a.net.Now() || t < a.log.MinReplayCycle() {
		return nil, false
	}
	return cwg.Build(a.rewind(t)), true
}

// knotAt reports whether the CWG at cycle t contains a knot overlapping
// the given VC set, as the message graph of the rewound snapshot finds it.
func (a *FormationAnalyzer) knotAt(t int64, knotVCs map[message.VC]bool) bool {
	if a.graph == nil {
		a.graph = cwg.NewMsgGraph(a.net.TotalVCs())
	}
	for _, d := range a.graph.Build(a.rewind(t)).Analyze(cwg.Options{}).Deadlocks {
		for _, vc := range d.KnotVCs {
			if knotVCs[vc] {
				return true
			}
		}
	}
	return false
}

// Analyze derives the formation metrics for one deadlock detected at the
// given cycle. It must run before recovery mutates the deadlock (the
// detector's Observer hook satisfies this). Returns nil when the deadlock
// set cannot be resolved against the live network.
func (a *FormationAnalyzer) Analyze(cycle int64, dl *cwg.Deadlock) *Formation {
	members := make(map[message.ID]bool, len(dl.DeadlockSet))
	for _, id := range dl.DeadlockSet {
		members[id] = true
	}
	first, found := int64(0), false
	for _, m := range a.net.ActiveMessages() {
		if members[m.ID] && m.Blocked {
			if !found || m.BlockedSince < first {
				first = m.BlockedSince
			}
			found = true
		}
	}
	if !found {
		return nil
	}

	knotVCs := make(map[message.VC]bool, len(dl.KnotVCs))
	for _, vc := range dl.KnotVCs {
		knotVCs[vc] = true
	}
	lo, truncated := first, false
	if min := a.log.MinReplayCycle(); min > lo {
		lo, truncated = min, true
	}
	// Smallest t in [lo, cycle] where the knot exists. P(cycle) holds by
	// construction (the rewind of zero events is the state the detector
	// just analyzed); permanence makes P monotone, so bisection is sound.
	hi := cycle
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a.knotAt(mid, knotVCs) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	closed := hi

	f := &Formation{
		FirstBlocked:    first,
		KnotClosed:      closed,
		FormationCycles: closed - first,
		DetectionLag:    cycle - closed,
		ClosedBy:        int64(a.closedBy(closed, members)),
		Truncated:       truncated,
	}
	f.Trajectory = a.trajectory(first, cycle, members)
	return f
}

// closedBy attributes the knot closure: the last resource event at the
// closing cycle belonging to a deadlock-set member.
func (a *FormationAnalyzer) closedBy(closed int64, members map[message.ID]bool) message.ID {
	var id message.ID = -1
	a.evBuf = a.log.Events(a.evBuf[:0])
	for i := range a.evBuf {
		e := &a.evBuf[i]
		if e.Cycle > closed {
			break
		}
		if e.Cycle == closed && members[e.Msg] {
			id = e.Msg
		}
	}
	return id
}

// trajectory samples the blocked-set buildup over [from, to] at up to
// trajectoryPoints evenly spaced replayable cycles.
func (a *FormationAnalyzer) trajectory(from, to int64, members map[message.ID]bool) []FormationPoint {
	if min := a.log.MinReplayCycle(); min > from {
		from = min
	}
	if from > to {
		return nil
	}
	n := int64(trajectoryPoints)
	if span := to - from + 1; span < n {
		n = span
	}
	pts := make([]FormationPoint, 0, n)
	for i := int64(0); i < n; i++ {
		t := from
		if n > 1 {
			t = from + (to-from)*i/(n-1)
		}
		p := FormationPoint{Cycle: t}
		for _, m := range a.rewind(t) {
			if m.Blocked {
				p.Blocked++
				if members[m.ID] {
					p.Members++
				}
			}
		}
		pts = append(pts, p)
	}
	return pts
}
