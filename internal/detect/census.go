package detect

// The cycle census beside the cycle.
//
// A census pass counts every elementary cycle of the channel wait-for graph
// (the paper's "number of resource dependency cycles"), and near saturation
// that count costs more than the rest of the pass. Nothing in the cycle reads
// it, so a census pass copies its snapshot and a goroutine counts the copy,
// with the census's own Builder, under the same caps, while the simulation
// goes on. The copy is written by AppendSnapshot, as Snapshot is, so it is
// deep (Wants is the network's live candidate set, rewritten as headers
// route) and in ActiveMessages order; it is taken before the pass analyzes
// or recovers anything, so the graph, and a capped count, is the one the
// pass would have counted itself. The pass then goes on as a census-free one:
// the knot-freedom proof first, the graph only when the proof fails.
//
// One census counts at a time (the Builder is held for it), and up to
// censusCopies copies are in flight, so a count that outlasts several
// detector periods, as capped ones deep in saturation do, stalls no pass
// until the copies run out. The copies are used in turn: a census pass joins
// the copy it reuses, and Wait joins them all, folding each count into the
// census fields of Stats (sums, a maximum and a flag, so the order does not
// matter); ResetStats joins them and drops the counts with the rest of the
// warm-up's record. No goroutine waits on the detector, so one abandoned
// with censuses in flight leaks nothing: each count ends, and its goroutine
// with it.

import (
	"sync"

	"flexsim/internal/cwg"
	"flexsim/internal/message"
)

// censusCopies bounds the snapshot copies in flight.
const censusCopies = 8

// census is the detector's counting Builder and its snapshot copies.
type census struct {
	mu     sync.Mutex // held for a count: one Builder, one count at a time
	b      *cwg.Builder
	opts   cwg.Options
	copies [censusCopies]censusCopy
	next   int // the copy the next census pass takes
}

// censusCopy is one census pass's snapshot and, once done is signalled, its
// count. Only the goroutine counting it touches it while busy.
type censusCopy struct {
	c    *census
	msgs []cwg.Msg
	vcs  []message.VC // every copied Owned and Wants, back to back

	cycles int
	capped bool

	busy bool
	done chan struct{} // one token per finished count; buffered, so count never blocks
	run  func()        // count, bound once so that starting it allocates nothing
}

// count builds the copied snapshot's graph and counts its cycles on its own
// goroutine.
func (s *censusCopy) count() {
	s.c.mu.Lock()
	s.cycles, s.capped = s.c.b.Build(s.msgs).CountCycles(s.c.opts)
	s.c.mu.Unlock()
	s.done <- struct{}{}
}

// startCensus copies the network's current snapshot into the next copy,
// joining that copy's earlier count first, and starts counting it.
func (d *Detector) startCensus() {
	c := d.census
	if c == nil {
		c = &census{
			b:    cwg.NewBuilder(d.net.TotalVCs()),
			opts: cwg.Options{MaxCycles: d.cfg.MaxCycles, MaxWork: d.cfg.MaxWork},
		}
		for i := range c.copies {
			s := &c.copies[i]
			s.c, s.done = c, make(chan struct{}, 1)
			s.run = s.count
		}
		d.census = c
	}
	s := &c.copies[c.next]
	c.next = (c.next + 1) % censusCopies
	d.join(s, true)
	s.msgs, s.vcs = AppendSnapshot(s.msgs[:0], s.vcs[:0], d.net.ActiveMessages())
	s.busy = true
	go s.run()
}

// join waits for s's count, if one is in flight, and folds it into Stats
// when keep is set.
func (d *Detector) join(s *censusCopy, keep bool) {
	if !s.busy {
		return
	}
	<-s.done
	s.busy = false
	if !keep {
		return
	}
	d.Stats.CensusSamples++
	d.Stats.SumCycles += int64(s.cycles)
	if s.cycles > d.Stats.MaxCycles {
		d.Stats.MaxCycles = s.cycles
	}
	if s.capped {
		d.Stats.CensusCapped = true
	}
}

// joinCensus joins every census in flight, folding their counts into Stats
// when keep is set.
func (d *Detector) joinCensus(keep bool) {
	if d.census == nil {
		return
	}
	for i := range d.census.copies {
		d.join(&d.census.copies[i], keep)
	}
}

// Wait folds every cycle census still in flight into Stats. A run calls it
// once its last pass is done and before it reads the census fields; until
// then they may lack the latest census passes.
func (d *Detector) Wait() { d.joinCensus(true) }
