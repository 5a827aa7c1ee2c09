// Package modelcheck cross-validates the CWG knot detector against an
// independent, semantics-level definition of deadlock on tiny
// configurations, by bounded-exhaustive exploration of an abstracted
// transition system.
//
// The abstraction keeps exactly the state the deadlock theory is about —
// per-message owned VC chains, per-slot flit occupancy, source/consumed
// counters, route-flag bits and source-queue order — and drops everything
// that only shifts timing (round-robin pointers, cycle clock). Transitions
// are the individual nondeterministic choices the real engine's phases
// resolve by deterministic ordering: start an injection, stream a source
// flit, advance one buffered flit, allocate one of the free VCs
// network.Route offers a header, eject one flit at the destination. The
// explorer takes every branch, so the reachable set covers every
// arbitration/priority resolution the real kernels could produce (an
// interleaving superset of the synchronous engine's single trajectory).
// Route is the engine's own route, so the candidate sets — the explorer's
// allocation branches, the blocked masks and the CWG's dashed arcs — are
// the relation the cycle engine runs, not a restatement of it. A state does
// not record how many hops its header has taken, so a relation with a
// misroute budget is refused.
//
// Released VCs are dropped and retired messages emptied eagerly, matching
// the engine's applyAndRelease normalization: the detector only ever
// observes post-release states. States are canonicalized by sorting the
// per-message encodings, which quotients out message identity (symmetry
// reduction); the transition system is a DAG (every move strictly increases
// total progress), so ground-truth liveness is a backward DP over the
// explored graph:
//
//	message m is STUCK in state s  <=>  m's header is blocked in s and no
//	state reachable from s has an outgoing move in which m acquires a VC
//	or ejects a flit.
//
// The verdict comparator then runs the REAL detection pipeline — a
// network.RestoreState'd Network, detect.Detector, cwg.Builder, knot
// analysis — on every enumerated state and checks:
//
//	soundness:    every deadlock-set member of every reported knot is stuck;
//	completeness: every stuck message is EVENTUALLY reported (as a
//	    deadlock-set or dependent member of a knot) along every
//	    continuation. The knot is a predicate on the current state and a
//	    deadlock can be inevitable moves before it finishes forming, so
//	    "latent" states (stuck message, no knot yet) are expected and
//	    tallied separately; only a continuation that NEVER reports the
//	    message is a divergence.
//
// Divergences are minimized (greedy message removal) and emitted as
// replayable JSON repro files that flexsim -repro renders. The same
// enumeration cross-validates the timeout heuristic (flagged = blocked for
// at least T consecutive moves on some path) against ground truth.
package modelcheck

import (
	"fmt"

	"flexsim/internal/detect"
	"flexsim/internal/network"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// MaxMessages bounds the per-configuration message count (bitmask DPs use
// uint8 masks; tiny configurations need 2-3).
const MaxMessages = 8

// Config is one tiny configuration to check exhaustively.
type Config struct {
	// Topology is "ring-uni" (unidirectional k-node ring), "ring-bi"
	// (bidirectional ring) or "line" (k-node 1-D mesh).
	Topology string `json:"topology"`
	// K is the node count of the 1-D topology (>= 2).
	K int `json:"k"`
	// VCs is the number of virtual channels per physical channel.
	VCs int `json:"vcs"`
	// Routing names the routing relation (routing.ByName).
	Routing string `json:"routing"`
	// Messages is the number of messages; every ordered placement of
	// (src, dst) pairs with src != dst is used as an initial state.
	Messages int `json:"messages"`
	// MsgLen is the per-message flit count.
	MsgLen int `json:"msg_len"`
	// BufferDepth is the per-VC edge buffer depth in flits.
	BufferDepth int `json:"buffer_depth"`
}

// Name returns a compact identifier for reports and file names.
func (c Config) Name() string {
	return fmt.Sprintf("%s-k%d-vc%d-%s-m%d-l%d-b%d",
		c.Topology, c.K, c.VCs, c.Routing, c.Messages, c.MsgLen, c.BufferDepth)
}

// system is the built simulator substrate for one configuration: the real
// topology, network and detector the comparator runs.
type system struct {
	cfg  Config
	topo topology.Network
	net  *network.Network
	det  *detect.Detector
}

// build validates the configuration and constructs its substrate.
func (c Config) build() (*system, error) {
	if c.Messages < 1 || c.Messages > MaxMessages {
		return nil, fmt.Errorf("modelcheck: Messages must be in [1,%d], got %d", MaxMessages, c.Messages)
	}
	if c.MsgLen < 1 {
		return nil, fmt.Errorf("modelcheck: MsgLen must be >= 1, got %d", c.MsgLen)
	}
	var (
		topo *topology.Torus
		err  error
	)
	switch c.Topology {
	case "ring-uni":
		topo, err = topology.New(c.K, 1, false)
	case "ring-bi":
		topo, err = topology.New(c.K, 1, true)
	case "line":
		topo, err = topology.NewMesh(c.K, 1)
	default:
		return nil, fmt.Errorf("modelcheck: unknown topology %q (ring-uni|ring-bi|line)", c.Topology)
	}
	if err != nil {
		return nil, err
	}
	algo, err := routing.ByName(c.Routing)
	if err != nil {
		return nil, err
	}
	if mr, ok := algo.(routing.MisroutingFAR); ok && mr.MaxDeroutes > 0 {
		// The budget reads the header's nonminimal hops so far, and a
		// state holds only the VCs a message still owns.
		return nil, fmt.Errorf("modelcheck: routing %q carries a misroute budget of %d "+
			"nonminimal hops, which a model state cannot count", c.Routing, mr.MaxDeroutes)
	}
	net, err := network.New(network.Params{
		Topo:        topo,
		VCs:         c.VCs,
		BufferDepth: c.BufferDepth,
		Routing:     algo,
	})
	if err != nil {
		return nil, err
	}
	if net.TotalVCs() > 255 {
		return nil, fmt.Errorf("modelcheck: VC id space %d exceeds the byte-encoded bound 255", net.TotalVCs())
	}
	det, err := detect.New(net, detect.Config{Every: 1, Recover: false, CountKnotCycles: true})
	if err != nil {
		return nil, err
	}
	return &system{cfg: c, topo: topo, net: net, det: det}, nil
}

// ShortGrid is the PR-CI subset: the smallest rings where true deadlocks
// exist plus a deadlock-free control, seconds to explore.
func ShortGrid() []Config {
	var grid []Config
	for _, topo := range []string{"ring-uni", "ring-bi"} {
		for _, k := range []int{2, 3} {
			for _, vcs := range []int{1, 2} {
				for _, msgs := range []int{2, 3} {
					for _, rt := range []string{"dor", "tfar"} {
						grid = append(grid, Config{
							Topology: topo, K: k, VCs: vcs, Routing: rt,
							Messages: msgs, MsgLen: 2, BufferDepth: 1,
						})
					}
				}
			}
		}
	}
	// One deadlock-free control: dateline DOR must never produce a knot.
	grid = append(grid, Config{
		Topology: "ring-uni", K: 3, VCs: 2, Routing: "dateline-dor",
		Messages: 3, MsgLen: 2, BufferDepth: 1,
	})
	return grid
}

// FullGrid is the acceptance grid: {2,3,4}-node rings (uni- and
// bidirectional) and lines x {1,2} VCs x {2,3} messages under DOR and TFAR,
// plus dateline-DOR deadlock-free controls at 2 VCs.
func FullGrid() []Config {
	var grid []Config
	for _, topo := range []string{"ring-uni", "ring-bi", "line"} {
		for _, k := range []int{2, 3, 4} {
			for _, vcs := range []int{1, 2} {
				for _, msgs := range []int{2, 3} {
					for _, rt := range []string{"dor", "tfar"} {
						grid = append(grid, Config{
							Topology: topo, K: k, VCs: vcs, Routing: rt,
							Messages: msgs, MsgLen: 2, BufferDepth: 1,
						})
					}
					if vcs == 2 {
						grid = append(grid, Config{
							Topology: topo, K: k, VCs: vcs, Routing: "dateline-dor",
							Messages: msgs, MsgLen: 2, BufferDepth: 1,
						})
					}
				}
			}
		}
	}
	return grid
}
