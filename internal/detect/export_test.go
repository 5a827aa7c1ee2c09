package detect

// ProveKnotFree exposes the knot-freedom proof to the package's external
// tests, which drive it through sim runs.
func (d *Detector) ProveKnotFree() (blocked int, ok bool) { return d.proveKnotFree() }

// SnapshotVCs reports how many VCs the latest Snapshot's buffer holds.
func (d *Detector) SnapshotVCs() int { return len(d.snapVCs) }
