package obs

// Per-VC occupancy/block heatmap: sampled on the metrics cadence, it
// accumulates how often each virtual channel was owned and how often its
// owner was blocked, exported as a dense CSV (one row per VC) for the
// paper-style 16-ary 2-cube hotspot plots. Zero value is usable; sizing
// and channel labels latch from the network on the first sample.

import (
	"encoding/csv"
	"fmt"
	"io"

	"flexsim/internal/message"
	"flexsim/internal/network"
)

// Heatmap accumulates per-VC occupancy and block counts. It is owned by
// one run and not safe for concurrent use.
type Heatmap struct {
	samples  int64
	occupied []int64
	blocked  []int64
	labels   []string
}

// Sample accumulates one observation of every VC's state.
func (h *Heatmap) Sample(net *network.Network) {
	if h.occupied == nil {
		n := net.TotalVCs()
		h.occupied = make([]int64, n)
		h.blocked = make([]int64, n)
		h.labels = make([]string, n)
		for vc := 0; vc < n; vc++ {
			h.labels[vc] = net.VCString(message.VC(vc))
		}
	}
	h.samples++
	for vc := range h.occupied {
		m := net.Owner(message.VC(vc))
		if m == nil {
			continue
		}
		h.occupied[vc]++
		if m.Blocked {
			h.blocked[vc]++
		}
	}
}

// WriteCSV writes the dense heatmap, one row per VC (none before the first
// sample); the fractions are of samples:
//
//	vc,label,samples,occupied,blocked,occupied_frac,blocked_frac
func (h *Heatmap) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"vc", "label", "samples", "occupied", "blocked",
		"occupied_frac", "blocked_frac"}); err != nil {
		return err
	}
	for vc := range h.occupied {
		rec := []string{
			fmt.Sprint(vc),
			h.labels[vc],
			fmt.Sprint(h.samples),
			fmt.Sprint(h.occupied[vc]),
			fmt.Sprint(h.blocked[vc]),
			fmt.Sprintf("%.6f", float64(h.occupied[vc])/float64(h.samples)),
			fmt.Sprintf("%.6f", float64(h.blocked[vc])/float64(h.samples)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
