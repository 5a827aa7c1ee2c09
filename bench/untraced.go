package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"flexsim/internal/api/specv1"
)

// golden/<workload>.sha256 holds each workload's digest at defaultSeed.
//
//go:embed golden/*.sha256
var goldens embed.FS

// verifier holds every repetition of one run to the first one's results and
// counts points attempted and failed.
type verifier struct {
	in     *instance
	digest string
	points [][sha256.Size]byte
	// first is the first repetition's results: a repetition that returns the
	// same bytes (a store-served one does) has the same digest unhashed.
	first     []specv1.PointResult
	attempted int
	failed    int
}

func (v *verifier) check(what string, results []specv1.PointResult) error {
	n := len(v.in.configs)
	v.attempted += n
	bad := unsettled(results, n)
	v.failed += bad
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d points did not settle done/cached", what, bad, n)
	}
	if sameBytes(results, v.first) {
		return nil
	}
	d, points, err := digest(results)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if v.points == nil {
		v.digest, v.points, v.first = d, points, results
		return nil
	}
	return sameDigests(what, results, points, v.points)
}

func sameBytes(a, b []specv1.PointResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Result, b[i].Result) {
			return false
		}
	}
	return true
}

// checkLocal holds a fleet workload's digest to a local core.RunSpec of the
// same spec (the cross-path identity the shared store depends on).
func (v *verifier) checkLocal() error {
	dir, err := v.in.freshDir("local")
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "results.jsonl")
	if err := localRun(v.in.specPath, out, "", 2); err != nil {
		return err
	}
	results, err := readResults(out)
	if err != nil {
		return err
	}
	return v.check("local run of the fleet's spec", results)
}

// checkGolden holds the default seed's digest to the committed one.
func (v *verifier) checkGolden() error {
	if v.in.seed != defaultSeed {
		return nil
	}
	want, err := goldens.ReadFile("golden/" + v.in.w.name + ".sha256")
	if err != nil {
		return fmt.Errorf("no golden for %s (digest %s): %w", v.in.w.name, v.digest, err)
	}
	if w := strings.TrimSpace(string(want)); w != v.digest {
		return fmt.Errorf("digest %s differs from golden %s", v.digest, w)
	}
	return nil
}

// runUntraced is the end-to-end measurement: set up `setups` times (each
// ending in the untimed warm repetition), then repeat the timed path for
// `secs` seconds and at least minReps times, verifying every repetition.
func runUntraced(in *instance, secs int) (*report, error) {
	v := &verifier{in: in}
	var setupHost, setupRef, wallHost, wallRef []float64
	threads := 1
	if in.w.kind == fleet {
		threads = 2
	}
	if err := mapRing(); err != nil {
		return nil, err
	}
	slow := machineSlowdown(threads)
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := in.setup(); err != nil {
			return nil, err
		}
		_, results, err := in.rep()
		if err != nil {
			return nil, err
		}
		// The whole of it: a fleet's start and stop sit outside a
		// repetition's clock, and work moved there must show here.
		elapsed := time.Since(start)
		before := slow
		slow = machineSlowdown(threads)
		setupHost = append(setupHost, elapsed.Seconds())
		setupRef = append(setupRef, atRefSpeed(elapsed, before, slow))
		if err := v.check(fmt.Sprintf("warm-up repetition %d", i+1), results); err != nil {
			return v.fail(err)
		}
	}
	var total time.Duration
	for len(wallHost) < minReps || total < time.Duration(secs)*time.Second {
		wall, results, err := in.rep()
		if err != nil {
			return nil, err
		}
		before := slow
		slow = machineSlowdown(threads)
		wallHost = append(wallHost, wall.Seconds())
		wallRef = append(wallRef, atRefSpeed(wall, before, slow))
		total += wall
		if err := v.check(fmt.Sprintf("repetition %d", len(wallHost)), results); err != nil {
			return v.fail(err)
		}
	}
	if in.w.kind == fleet {
		if err := v.checkLocal(); err != nil {
			return v.fail(err)
		}
	}
	if err := v.checkGolden(); err != nil {
		return v.fail(err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	n := len(in.configs)
	fmt.Printf("== %s  seed %d  untraced  %d points  digest %s ==\n", in.w.name, in.seed, n, v.digest)
	line := func(name string, xs []float64) float64 {
		q1, med, q3 := quartiles(xs)
		fmt.Printf("  %-22s median %.4f  q1 %.4f  q3 %.4f  n=%d\n", name, med, q1, q3, len(xs))
		return med
	}
	line("setup_s (host)", setupHost)
	smed := line("setup_s (ref. speed)", setupRef)
	line("wall_s (host)", wallHost)
	med := line("wall_s (ref. speed)", wallRef)
	fmt.Printf("  wall_s repetitions (host) %.4f\n", wallHost)
	fmt.Printf("  wall_s repetitions (ref. speed) %.4f\n", wallRef)
	fmt.Printf("  failed_frac %d/%d\n", v.failed, v.attempted)
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", smed)
	ms.set("wall_s", med)
	ms.set("sim_cycles_per_s", float64(specCycles(in.spec))/med)
	ms.set("points_per_s", float64(n)/med)
	ms.set("peak_rss_mib", rss)
	metrics, err := ms.report()
	if err != nil {
		return nil, err
	}
	return &report{Correct: true, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}

// fail reports a verification failure: the run is incorrect, not broken.
func (v *verifier) fail(err error) (*report, error) {
	return &report{Correct: false, Attempted: max(v.attempted, 1), Failed: v.failed,
		Metrics: map[string]metric{}}, err
}
