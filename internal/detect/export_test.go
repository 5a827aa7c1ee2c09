package detect

// ProveKnotFree exposes the knot-freedom proof to the package's external
// tests, which drive it through sim runs.
func (d *Detector) ProveKnotFree() (blocked int, ok bool) { return d.proveKnotFree() }
