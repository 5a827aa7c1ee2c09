package detect

import (
	"slices"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// ProveKnotFree exposes the knot-freedom proof to the package's external
// tests, which drive it through sim runs.
func (d *Detector) ProveKnotFree() (blocked int, ok bool) { return d.proveKnotFree() }

// SnapshotVCs reports how many VCs the latest Snapshot's buffer holds.
func (d *Detector) SnapshotVCs() int { return len(d.snapVCs) }

// Unproved returns, sorted, the ids of the messages the latest proof left
// unproved: the doomed ones when it failed.
func (d *Detector) Unproved() []message.ID {
	ids := make([]message.ID, 0, len(d.pending))
	for _, m := range d.pending {
		ids = append(ids, m.ID)
	}
	slices.Sort(ids)
	return ids
}

// UseVCGraph sends d's graph passes through the VC graph instead of the
// message graph: the oracle the message graph must equal.
func (d *Detector) UseVCGraph() {
	d.graphPass = func(msgs []cwg.Msg, opts cwg.Options) cwg.Analysis {
		return cwg.Build(msgs).Analyze(opts)
	}
}
