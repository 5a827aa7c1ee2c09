package network

// Parallel cycle engine: the network's routers are partitioned into
// contiguous node-range shards, each stepped by a persistent worker. The
// cycle's phases run as shard-local kernels separated by barriers; effects
// that cross a shard boundary (a flit transfer into a remote shard's VC, a
// grant that commits into a message owned elsewhere) travel through
// per-(src,dst)-shard mailboxes and are applied by the owning shard in the
// next phase.
//
// Determinism is non-negotiable: results must be bit-identical for any
// shard count. Two properties make that cheap:
//
//  1. VC allocation is node-local. Every routing relation in this simulator
//     derives its candidate channels from the header's current node, so all
//     contenders for a channel's VCs have their header at that channel's
//     source node — one shard. The allocate kernel therefore needs no
//     cross-shard coordination at all.
//
//  2. Arbitration winners and transfer commits are order-independent. Each
//     channel's requesters target distinct VCs (unique round-robin keys),
//     each node's deliverers hold distinct head VCs, and the commit of a
//     granted transfer only increments/decrements per-slot flit counts
//     whose final values do not depend on commit order.
//
// What remains order-sensitive is the externally visible event stream:
// trace events, forensics ResourceLog records, and OnDeliver callbacks.
// Those are buffered per worker and merged in a canonical order — message
// Ord (the message's position in the global active order at cycle start)
// for message-keyed phases, node index for node-keyed phases. A single
// worker in "direct" mode skips the buffering entirely and applies effects
// inline, which is exactly the sequential engine; both modes run the same
// kernels, so they cannot drift apart.

import (
	"math/bits"
	"os"
	"strconv"
	"sync"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
	"flexsim/internal/trace"
)

// shardsEnv holds the shard count of a network built with a zero
// Params.Shards; anything but an integer is ignored. CI uses it to force the
// parallel engine under -race without threading a knob through every test
// helper, and it is the one way to ask a CLI for that engine.
const shardsEnv = "FLEXSIM_SHARDS"

// resolveShards turns the requested shard count into the effective one.
func resolveShards(req, nodes int) int {
	s := req
	if s == 0 {
		if k, err := strconv.Atoi(os.Getenv(shardsEnv)); err == nil {
			s = k
		}
	}
	if s < 1 {
		s = 1
	}
	if s > nodes {
		s = nodes
	}
	return s
}

// deltas accumulates a worker's counter contributions for one phase or
// cycle; flushCounters folds them into the Network between barriers, so
// kernels never contend on shared counters.
type deltas struct {
	epoch   uint64
	queued  int
	blocked int // flushed explicitly after the allocate phase, not by flushCounters
	retired int // messages the release phase retired: compactActive has work

	injectedFlits  int64
	deliveredFlits int64
	absorbedFlits  int64

	deliveredCount  int64
	recoveredCount  int64
	killedCount     int64
	killedFlits     int64
	unroutableCount int64
}

// effectKind discriminates buffered externally visible effects.
type effectKind int8

const (
	fxTrace effectKind = iota
	fxRes
	fxDeliver
)

// effect is one buffered externally visible event, tagged with its merge
// key: the owning message's Ord for message-keyed phases, the node index
// for node-keyed phases.
type effect struct {
	ord  int32
	kind effectKind

	ev trace.Event // fxTrace

	res   ResKind      // fxRes
	id    message.ID   // fxRes
	vc    message.VC   // fxRes
	wants []message.VC // fxRes: copied at emission (Message.Wants is reused in place)

	msg *message.Message // fxDeliver
}

// worker steps one shard. In direct mode (the single worker of a 1-shard
// network, and the between-cycle worker w0) every emit applies immediately
// and no partition exists; otherwise emits buffer into fxMsg/fxNode for the
// coordinator to merge at the next barrier.
type worker struct {
	n      *Network
	id     int32
	direct bool

	nodeLo, nodeHi int // owned node range [lo, hi)

	msgs     []*message.Message // messages owned this cycle (multi-shard only)
	injected []*message.Message // newly injected this cycle, absorbed at the barrier

	// curOrd is the merge key of the effect currently being emitted.
	curOrd int32
	buf    *[]effect // emission target for the running phase
	fxMsg  []effect  // message-keyed effects (merge by Ord)
	fxNode []effect  // node-keyed effects (concatenate in shard order)

	// Mailboxes, indexed by destination shard. A transfer travels as the id
	// of the VC it fills: owner and slotOf recover the message and hop.
	reqOut   [][]message.VC // planned transfers targeting a remote shard's channel
	grantOut [][]message.VC // granted transfers whose message another shard owns

	// Three bitmaps say where this shard has work, so a phase scans set bits
	// instead of every channel or node. chBits has bit ch set for each of
	// the shard's channels with a pending transfer request; rxNodes and
	// qNodes are indexed (node - nodeLo) — per worker, because two shards
	// whose boundary is not a multiple of 64 would otherwise share a word —
	// and mark a pending reception request and a source queue to scan (see
	// scanQueue). Scanning them visits nodes in ascending order, the order
	// ejection and injection effects must merge in. chBits and rxNodes are
	// zero between cycles; qNodes persists with the queues.
	chBits  []uint64
	rxNodes []uint64
	qNodes  []uint64

	// Routing scratch (per worker: the allocate kernel runs concurrently).
	// req is reused for every Candidates call: a per-call Request would
	// escape through the interface call, one heap object per routed header.
	req     routing.Request
	candBuf []routing.Candidate
	fbBuf   []routing.Candidate
	chBuf   []topology.ChannelID

	// phaseNs holds this cycle's measured kernel durations, one per
	// launch; written by the worker goroutine inside the stage kernels,
	// read by the coordinator after the barrier (the pool's WaitGroup
	// orders the accesses). Zero when telemetry is off.
	phaseNs [EnginePhases]int64

	d deltas
}

// initWorkers builds the stepping machinery for the resolved shard count.
func (n *Network) initWorkers() {
	nodes := n.topo.Nodes()
	req := routing.Request{Topo: n.topo, VCs: n.vcs}
	chWords := (n.topo.NumChannels() + 63) / 64
	n.w0 = &worker{n: n, direct: true, nodeLo: 0, nodeHi: nodes, req: req,
		chBits:  make([]uint64, chWords),
		rxNodes: make([]uint64, (nodes+63)/64),
		qNodes:  make([]uint64, (nodes+63)/64)}
	if n.shards <= 1 {
		return
	}
	s := n.shards
	n.workers = make([]*worker, s)
	n.shardOfNode = make([]int32, nodes)
	n.shardOfCh = make([]int32, n.topo.NumChannels())
	for i := 0; i < s; i++ {
		w := &worker{
			n:        n,
			id:       int32(i),
			nodeLo:   i * nodes / s,
			nodeHi:   (i + 1) * nodes / s,
			reqOut:   make([][]message.VC, s),
			grantOut: make([][]message.VC, s),
			req:      req,
		}
		w.chBits = make([]uint64, chWords)
		w.rxNodes = make([]uint64, (w.nodeHi-w.nodeLo+63)/64)
		w.qNodes = make([]uint64, len(w.rxNodes))
		n.workers[i] = w
		for node := w.nodeLo; node < w.nodeHi; node++ {
			n.shardOfNode[node] = int32(i)
		}
	}
	for ch := 0; ch < n.topo.NumChannels(); ch++ {
		n.shardOfCh[ch] = n.shardOfNode[n.topo.ChannelSrc(topology.ChannelID(ch))]
	}
	n.mergeCur = make([]int, s)
	n.pool = newPool(n.workers)
}

// Close stops the worker pool. Idempotent; a Network stepped after Close
// falls back to the sequential engine. Only multi-shard networks hold any
// resources worth closing.
func (n *Network) Close() {
	if n.pool == nil {
		return
	}
	n.pool.close()
	n.pool = nil
	// The sequential worker scans the source queues from here on.
	n.markQueues()
}

// queueWorker returns the worker whose startInjections scans node's source
// queue, and with it owns the node's bit in qNodes.
func (n *Network) queueWorker(node int) *worker {
	if n.pool == nil {
		return n.w0
	}
	return n.workers[n.shardOfNode[node]]
}

// scanQueue reports whether startInjections has to visit node's source queue
// when it holds something; the node's bit in qNodes is set exactly when both
// hold. On a healthy sequential engine that is while the injection VC is
// free: an owned one admits nothing until applyAndRelease frees it, which
// marks the node again, so saturation does not pay for a scan of every
// backlogged node. A fault set makes every waiting queue worth the visit (a
// dead destination's message is dropped at the queue head whatever the
// injection VC is doing), and the sharded engine visits them all because the
// VC is released on the worm's shard and only the node's may write the bit.
func (n *Network) scanQueue(node int) bool {
	return n.owner[n.InjVC(node)] == nil || n.faults != nil || n.pool != nil
}

// markQueue sets node's bit in qNodes.
func (n *Network) markQueue(node int) {
	w := n.queueWorker(node)
	b := node - w.nodeLo
	w.qNodes[b>>6] |= 1 << (b & 63)
}

// markQueues rebuilds qNodes from the queues, for the moments scanQueue's
// answer changes under every node at once.
func (n *Network) markQueues() {
	clear(n.w0.qNodes)
	for _, w := range n.workers {
		clear(w.qNodes)
	}
	for node := range n.queues {
		if n.queues[node].len() > 0 && n.scanQueue(node) {
			n.markQueue(node)
		}
	}
}

// enqueue appends m to node's source queue.
func (n *Network) enqueue(node int, m *message.Message) {
	n.queues[node].push(m)
	n.queued++
	if n.scanQueue(node) {
		n.markQueue(node)
	}
}

// --- Worker pool -------------------------------------------------------------

// pool is a set of persistent goroutines, one per worker, parked on a job
// channel. runStage hands every worker the same kernel and waits for all of
// them at a barrier.
type pool struct {
	jobs []chan func(*worker)
	wg   sync.WaitGroup
}

func newPool(workers []*worker) *pool {
	p := &pool{jobs: make([]chan func(*worker), len(workers))}
	for i, w := range workers {
		ch := make(chan func(*worker), 1)
		p.jobs[i] = ch
		go func(w *worker, ch chan func(*worker)) {
			for f := range ch {
				f(w)
				p.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// runStage executes f on every worker concurrently and returns after all
// have finished (the per-phase barrier).
func (p *pool) runStage(f func(*worker)) {
	p.wg.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- f
	}
	p.wg.Wait()
}

func (p *pool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// --- Effect emission ---------------------------------------------------------

func (w *worker) emitTrace(kind trace.Kind, id message.ID, vc message.VC, node int) {
	n := w.n
	if n.p.Tracer == nil {
		return
	}
	ev := trace.Event{Cycle: n.now, Kind: kind, Msg: id, VC: vc, Node: node}
	if w.direct {
		n.p.Tracer.Trace(ev)
		return
	}
	*w.buf = append(*w.buf, effect{ord: w.curOrd, kind: fxTrace, ev: ev})
}

func (w *worker) emitRes(kind ResKind, id message.ID, vc message.VC, wants []message.VC) {
	n := w.n
	if n.resLog == nil {
		return
	}
	if w.direct {
		n.resLog.record(n.now, kind, id, vc, wants)
		return
	}
	// Message.Wants is rewritten in place later in the same cycle; copy now.
	var cp []message.VC
	if len(wants) > 0 {
		cp = append(cp, wants...)
	}
	*w.buf = append(*w.buf, effect{ord: w.curOrd, kind: fxRes, res: kind, id: id, vc: vc, wants: cp})
}

func (w *worker) emitDeliver(m *message.Message) {
	n := w.n
	if n.OnDeliver == nil {
		return
	}
	if w.direct {
		n.OnDeliver(m)
		return
	}
	*w.buf = append(*w.buf, effect{ord: w.curOrd, kind: fxDeliver, msg: m})
}

// flushCounters folds the worker's accumulated deltas (except blocked,
// which is a per-cycle snapshot handled by the step driver) into the
// Network. Runs on the coordinator goroutine only.
func (w *worker) flushCounters() {
	n := w.n
	d := &w.d
	n.resEpoch += d.epoch
	n.queued += d.queued
	n.InjectedFlits += d.injectedFlits
	n.DeliveredFlits += d.deliveredFlits
	n.AbsorbedFlits += d.absorbedFlits
	n.DeliveredCount += d.deliveredCount
	n.RecoveredCount += d.recoveredCount
	n.KilledCount += d.killedCount
	n.KilledFlits += d.killedFlits
	n.UnroutableCount += d.unroutableCount
	n.retired += d.retired
	*d = deltas{blocked: d.blocked}
}

// applyEffect replays one buffered effect on the coordinator goroutine.
func (n *Network) applyEffect(e *effect) {
	switch e.kind {
	case fxTrace:
		if n.p.Tracer != nil {
			n.p.Tracer.Trace(e.ev)
		}
	case fxRes:
		if n.resLog != nil {
			n.resLog.record(n.now, e.res, e.id, e.vc, e.wants)
		}
	case fxDeliver:
		if n.OnDeliver != nil {
			n.OnDeliver(e.msg)
		}
	}
}

// mergeMsgEffects applies every worker's message-keyed effects in ascending
// Ord order (a k-way merge; each worker's stream is already Ord-sorted
// because kernels walk their partition in Ord order). This reproduces the
// exact event order of the sequential engine, which walks the global active
// list.
func (n *Network) mergeMsgEffects() {
	total := 0
	for _, w := range n.workers {
		total += len(w.fxMsg)
	}
	if total == 0 {
		return
	}
	cur := n.mergeCur
	for i := range cur {
		cur[i] = 0
	}
	for k := 0; k < total; k++ {
		best := -1
		var bestOrd int32
		for wi, w := range n.workers {
			if c := cur[wi]; c < len(w.fxMsg) {
				if best < 0 || w.fxMsg[c].ord < bestOrd {
					best, bestOrd = wi, w.fxMsg[c].ord
				}
			}
		}
		w := n.workers[best]
		n.applyEffect(&w.fxMsg[cur[best]])
		cur[best]++
	}
	for _, w := range n.workers {
		clear(w.fxMsg) // drop message/wants references for the GC
		w.fxMsg = w.fxMsg[:0]
	}
}

// mergeNodeEffects applies node-keyed effects. Shards own contiguous
// ascending node ranges and each kernel walks its nodes in ascending order,
// so concatenation in shard order is already global node order.
func (n *Network) mergeNodeEffects() {
	for _, w := range n.workers {
		for i := range w.fxNode {
			n.applyEffect(&w.fxNode[i])
		}
		clear(w.fxNode)
		w.fxNode = w.fxNode[:0]
	}
}

// --- Step drivers ------------------------------------------------------------

// stepSequential runs the cycle on the single direct worker: kernels apply
// every effect inline, exactly the classic one-goroutine engine. With es
// attached the same four phase groups the parallel launches run are timed as
// shard 0; barrier idle and mailbox traffic are structurally zero in direct
// mode, and the phase split still answers "where does a cycle go".
func (n *Network) stepSequential(es *EngineStats) {
	w := n.w0
	t := es.start()
	w.drainRecovering(n.active)
	w.startInjections()
	t = es.lap(0, t)
	w.d.blocked = 0
	w.allocatePlan(n.active)
	n.blocked = w.d.blocked
	w.d.blocked = 0
	t = es.lap(1, t)
	w.arbitrateAndEject()
	t = es.lap(2, t)
	w.applyAndRelease(n.active)
	w.flushCounters()
	n.compactActive()
	es.lap(3, t)
}

// Kernels for the four parallel launches. Package-level so handing them to
// the pool allocates nothing. Each stamps its own duration into phaseNs
// through the nil-able probe: one predictable branch per worker per launch
// when telemetry is off.

func stageDrainInject(w *worker) {
	t := w.n.eng.start()
	w.buf = &w.fxMsg
	w.drainRecovering(w.msgs)
	w.buf = &w.fxNode
	w.startInjections()
	w.phaseNs[0] = w.n.eng.since(t)
}

func stageAllocPlan(w *worker) {
	t := w.n.eng.start()
	w.buf = &w.fxMsg
	w.d.blocked = 0
	w.allocatePlan(w.msgs)
	w.phaseNs[1] = w.n.eng.since(t)
}

func stageArbEject(w *worker) {
	t := w.n.eng.start()
	w.buf = &w.fxNode
	w.arbitrateAndEject()
	w.phaseNs[2] = w.n.eng.since(t)
}

func stageApplyRelease(w *worker) {
	t := w.n.eng.start()
	w.buf = &w.fxMsg
	w.applyAndRelease(w.msgs)
	w.phaseNs[3] = w.n.eng.since(t)
}

// stepParallel runs the cycle as four barrier-separated launches over the
// worker pool, merging buffered effects and exchanging mailboxes between
// launches on the coordinator goroutine. With es attached, each barrier's
// worker durations and the mailboxes while they are full are folded into it
// (launched is a no-op on nil).
func (n *Network) stepParallel(es *EngineStats) {
	n.partition()

	// Launch 1: recovery drain (message-keyed) + injection starts
	// (node-keyed). Sequential order is all drain events then all
	// injection events, so merge fxMsg before fxNode.
	n.pool.runStage(stageDrainInject)
	es.launched(0, n.workers)
	n.mergeMsgEffects()
	n.absorbInjected()
	n.mergeNodeEffects()

	// Launch 2: VC allocation + transfer planning (both message-keyed;
	// allocation conflicts are shard-local, remote transfer requests go
	// to the reqOut mailboxes).
	n.pool.runStage(stageAllocPlan)
	es.launched(1, n.workers)
	n.mergeMsgEffects()
	n.blocked = 0
	for _, w := range n.workers {
		n.blocked += w.d.blocked
		w.d.blocked = 0
	}

	// Launch 3: per-channel and per-node arbitration + ejection. Grants
	// whose message another shard owns go to the grantOut mailboxes.
	n.pool.runStage(stageArbEject)
	es.launched(2, n.workers)
	n.mergeNodeEffects()

	// Launch 4: commit granted transfers, stream source flits, release
	// drained VCs and retire completed messages.
	n.pool.runStage(stageApplyRelease)
	es.launched(3, n.workers)
	n.mergeMsgEffects()

	for _, w := range n.workers {
		w.flushCounters()
	}
	n.compactActive()
}

// partition assigns every active message to the shard owning its header
// node and stamps its Ord (position in the global active order), the merge
// key that lets per-shard event streams reproduce sequential order.
func (n *Network) partition() {
	for _, w := range n.workers {
		w.msgs = w.msgs[:0]
	}
	for i, m := range n.active {
		s := n.shardOfNode[n.downstream[m.Hops[len(m.Hops)-1].VC]]
		m.Ord = int32(i)
		m.Shard = s
		n.workers[s].msgs = append(n.workers[s].msgs, m)
	}
}

// absorbInjected moves newly injected messages into the global active list
// and their owner shard's partition. Workers are visited in shard order and
// each buffered its injections in ascending node order, so the resulting
// active order matches the sequential engine's node-order scan exactly.
func (n *Network) absorbInjected() {
	for _, w := range n.workers {
		for _, m := range w.injected {
			m.Ord = int32(len(n.active))
			m.Shard = w.id
			n.active = append(n.active, m)
			n.activeDirty = true
			w.msgs = append(w.msgs, m)
		}
		clear(w.injected)
		w.injected = w.injected[:0]
	}
}

// --- Phase kernels -----------------------------------------------------------

// drainRecovering absorbs flits of recovering messages.
func (w *worker) drainRecovering(msgs []*message.Message) {
	rate := w.n.p.RecoveryDrainRate
	if rate <= 0 {
		return
	}
	for _, m := range msgs {
		if m.Status == message.Recovering {
			w.curOrd = m.Ord
			w.absorbFlits(m, rate)
		}
	}
}

// absorbFlits removes up to k flits of m, tail-first (source remainder
// first, then the earliest owned buffer), so VCs free in acquisition order
// as a draining worm's would.
func (w *worker) absorbFlits(m *message.Message, k int) {
	n := w.n
	for k > 0 && m.Consumed < m.Len {
		if m.SrcRemaining > 0 {
			m.SrcRemaining--
			m.Consumed++
			k--
			continue
		}
		// Find the tail-most occupied slot.
		i := m.Released
		for i < len(m.Hops) && m.Hops[i].Occ == 0 {
			// An owned but empty slot between tail and head can
			// only be the not-yet-entered head allocation; skip.
			i++
		}
		if i == len(m.Hops) {
			break
		}
		m.Hops[i].Occ--
		m.Hops[i].Departed++
		m.Consumed++
		w.d.absorbedFlits++
		k--
	}
	if m.Consumed == m.Len {
		m.Status = message.Recovered
		m.DeliverTime = n.now
		w.d.recoveredCount++
		w.emitTrace(trace.RecoveryDone, m.ID, message.NoVC, -1)
		// Any owned slots the drain skipped (allocated, never entered)
		// are releasable now; mark them fully departed so the release
		// phase frees them.
		for i := m.Released; i < len(m.Hops); i++ {
			m.Hops[i].Departed = int32(m.Len)
		}
	}
}

// startInjections moves queued messages of the shard's nodes into free
// injection VCs, visiting only the nodes qNodes marks. Node-keyed: effects
// merge in node order.
func (w *worker) startInjections() {
	n := w.n
	for i, word := range w.qNodes {
		for ; word != 0; word &= word - 1 {
			node := w.nodeLo + i<<6 + bits.TrailingZeros64(word)
			q := &n.queues[node]
			m := q.peek()
			w.curOrd = int32(node)
			if n.faults != nil {
				if n.faults.nodeDown[node] {
					continue // a dead router injects nothing
				}
				if n.faults.nodeDown[m.Dst] {
					// Destination is down: drop rather than inject a
					// message that can never be consumed.
					w.dequeue(q, node)
					w.dropQueuedDead(m, node)
					continue
				}
			}
			vc := n.InjVC(node)
			if n.owner[vc] != nil {
				continue
			}
			n.acquire(m, vc)
			w.dequeue(q, node)
			m.Status = message.Active
			m.InjectTime = n.now
			if w.direct {
				n.active = append(n.active, m)
				n.activeDirty = true
			} else {
				w.injected = append(w.injected, m)
			}
			w.d.epoch++
			w.emitRes(ResAcquire, m.ID, vc, nil)
			w.emitTrace(trace.Injected, m.ID, vc, node)
		}
	}
}

// dequeue pops the head of node's source queue q, clearing the node's qNodes
// bit when that empties it or the head just took the injection VC.
func (w *worker) dequeue(q *msgQueue, node int) {
	q.pop()
	w.d.queued--
	if q.len() == 0 || !w.n.scanQueue(node) {
		b := node - w.nodeLo
		w.qNodes[b>>6] &^= 1 << (b & 63)
	}
}

// allocatePlan is the per-worm half of a cycle before arbitration, one pass
// over the active list: VC allocation for the header, then the worm's
// flit-movement requests. Per-message interleaving is safe because plan reads
// only the worm's own hops and writes only request state, while allocate
// reads only the owner table and the fault set — so the events come out in
// the order two separate passes would emit them.
//
// A header that is already blocked is parked: Wants is its candidate set,
// exact until the fault set changes, so it is re-routed only once a wanted
// VC is free or the fault generation has moved. Re-routing a parked header
// any earlier would rebuild the same Wants and emit nothing. A frozen worm
// (see plan) skips the walk the same way, but not the parked check: the
// blocked count and wake-on-free need it.
func (w *worker) allocatePlan(msgs []*message.Message) {
	n := w.n
	for _, m := range msgs {
		if m.Status != message.Active {
			continue
		}
		if m.Blocked && m.WantsGen == n.faultGen && !n.anyFree(m.Wants) {
			w.d.blocked++
		} else {
			w.allocate(m)
			if m.Status != message.Active {
				continue // killed as unroutable
			}
		}
		if m.Frozen {
			continue
		}
		if !w.plan(m) {
			m.Frozen = true
		}
	}
}

// allocate routes m's header if it sits at the head of its buffer and tries
// to allocate the first free candidate VC; failing that the message is
// marked blocked with its candidate set recorded (the CWG dashed arcs).
// Shard-local: every candidate VC leaves the header's node, so no other
// shard competes for it.
func (w *worker) allocate(m *message.Message) {
	n := w.n
	head := m.Hops[len(m.Hops)-1]
	if head.Departed != 0 || head.Occ == 0 {
		return // header already departed or not yet arrived
	}
	here := int(n.downstream[head.VC])
	if here == m.Dst {
		return // ejecting; reception handled by arbitrateAndEject
	}
	w.curOrd = m.Ord
	cands := w.route(m, here)
	if len(cands) == 0 {
		// No continuation: the routing relation has none for this
		// header (a disconnected pair on a degraded or irregular
		// graph), nothing live survives the fault set, or the
		// misroute budget is spent. Drop with a counted stat instead
		// of spinning forever.
		w.killUnroutable(m, here)
		return
	}
	for _, c := range cands {
		vc := n.NetVC(c.Ch, c.VC)
		if n.owner[vc] == nil {
			n.acquire(m, vc)
			w.d.epoch++
			if m.Blocked {
				w.emitRes(ResUnblock, m.ID, message.NoVC, m.Wants)
				m.Blocked = false
				m.Wants = m.Wants[:0]
				w.emitTrace(trace.Unblocked, m.ID, vc, here)
			}
			w.emitRes(ResAcquire, m.ID, vc, nil)
			w.emitTrace(trace.Allocated, m.ID, vc, here)
			return
		}
	}
	newly := !m.Blocked
	if newly {
		m.Blocked = true
		m.BlockedSince = n.now
		w.d.epoch++
		w.emitTrace(trace.Blocked, m.ID, message.NoVC, here)
	}
	m.Wants = n.appendVCs(m.Wants[:0], cands)
	m.WantsGen = n.faultGen
	if newly {
		w.emitRes(ResBlock, m.ID, message.NoVC, m.Wants)
	}
	w.d.blocked++
}

// appendVCs appends the VC ids of cands to dst.
func (n *Network) appendVCs(dst []message.VC, cands []routing.Candidate) []message.VC {
	for _, c := range cands {
		dst = append(dst, n.NetVC(c.Ch, c.VC))
	}
	return dst
}

// anyFree reports whether any of vcs is unowned.
func (n *Network) anyFree(vcs []message.VC) bool {
	for _, vc := range vcs {
		if n.owner[vc] == nil {
			return true
		}
	}
	return false
}

// route returns the live candidate set for m's header at node here, in
// selection order: the routing relation's candidates, restricted to the
// surviving graph when faults are present. Empty means m is unroutable. The
// result aliases worker scratch and is valid until the next route call.
func (w *worker) route(m *message.Message, here int) []routing.Candidate {
	n := w.n
	req := &w.req
	req.Node = here
	req.Dst = m.Dst
	req.CurDim = m.CurDim
	req.Crossed = m.Crossed
	req.PrevCh = n.prevChannel(m)
	if n.maxDeroutes > 0 {
		req.Deroutes = derouteCount(n.topo, m)
	}
	w.candBuf = n.p.Routing.Candidates(req, w.candBuf[:0])
	if n.faults == nil {
		return w.candBuf
	}
	return w.faultCandidates(m, here, req.PrevCh, w.candBuf)
}

// plan registers m's flit-movement requests for this cycle from pre-cycle
// state: per physical channel for link traversals (a bit in the channel's
// request word, or the target VC in the channel owner's mailbox when remote)
// and per node for ejection at the destination (always shard-local: the
// requester's header is at that node). It reports whether m can move at all
// — a request made, or a source flit due in applyAndRelease.
//
// A worm for which it reports false is frozen. Every transfer is between two
// hops of the same worm, a worm with no request gets no commit and no
// ejection, so none of its Occ or Departed counts change and nothing is
// released: the next walk would find the same. Only a new hop changes that,
// and acquire clears the flag. Absorb and the fault kills change Status
// instead, which every skip tests first.
//
// The pair loop computes eligibility from sign bits and ORs it in whether it
// is 0 or 1: an `if` here is data-dependent and mispredicts on every live
// worm, and that — not the frozen worms — was the walk's cost.
func (w *worker) plan(m *message.Message) bool {
	n := w.n
	depth, vcs, local := n.depth, int32(n.vcs), w.direct
	hops := m.Hops[m.Released:]
	var live uint64
	occ := hops[0].Occ
	// Only hop 0 is an injection VC, so next is a network VC.
	for _, next := range hops[1:] {
		// occ > 0 && next.Occ < depth
		e := uint64(uint32(-occ)>>31) & uint64(uint32(next.Occ-depth)>>31)
		occ = next.Occ
		live |= e
		ch := n.chOf[next.VC]
		if local || n.shardOfCh[ch] == w.id {
			n.chReq[ch] |= e << (uint32(int32(next.VC)-ch*vcs) & 63)
			w.chBits[ch>>6] |= e << (uint32(ch) & 63)
		} else if e != 0 {
			t := n.shardOfCh[ch]
			w.reqOut[t] = append(w.reqOut[t], next.VC)
		}
	}
	if head := hops[len(hops)-1]; head.Occ > 0 && int(n.downstream[head.VC]) == m.Dst {
		// Flits at the head buffer of a message whose header has
		// reached the destination: request the reception channel.
		n.requestRx(m.Dst, head.VC)
		b := m.Dst - w.nodeLo
		w.rxNodes[b>>6] |= 1 << (b & 63)
		return true
	}
	return live != 0 || w.sourceFlitDue(m)
}

// sourceFlitDue reports whether m's source streams a flit into the injection
// buffer this cycle: one is left, the buffer has room and is still owned.
func (w *worker) sourceFlitDue(m *message.Message) bool {
	return m.SrcRemaining > 0 && m.Hops[0].Occ < w.n.inj && m.Released == 0
}

// requestVC sets vc's bit in the request word of its channel, one of this
// shard's: the conditional form of plan's OR, for requests adopted from a
// mailbox.
func (w *worker) requestVC(vc message.VC) {
	n := w.n
	ch := int(n.chOf[vc])
	n.chReq[ch] |= 1 << (int(vc) - ch*n.vcs)
	w.chBits[ch>>6] |= 1 << (ch & 63)
}

// arbitrateAndEject grants one transfer per requested physical channel and
// one ejection per requested reception port. In direct mode grants commit
// immediately (the sequential engine's order: channel commits, then
// ejections); otherwise a grant is routed to the mailbox of the shard
// owning its message, because committing writes message state.
func (w *worker) arbitrateAndEject() {
	n := w.n
	if !w.direct {
		// Adopt transfer requests other shards planned for our channels.
		for _, src := range n.workers {
			for _, vc := range src.reqOut[w.id] {
				w.requestVC(vc)
			}
			src.reqOut[w.id] = src.reqOut[w.id][:0]
		}
	}
	// Grant per physical channel: round-robin over VC index. Winners are
	// order-independent (one requester per VC), so the scan's ascending
	// channel order is as good as any.
	for i, word := range w.chBits {
		w.chBits[i] = 0
		for ; word != 0; word &= word - 1 {
			ch := i<<6 + bits.TrailingZeros64(word)
			reqs := n.chReq[ch]
			n.chReq[ch] = 0
			v := grantVC(reqs, n.chRR[ch])
			n.chRR[ch] = int32(v)
			vc := n.NetVC(topology.ChannelID(ch), v)
			if w.direct {
				n.commit(vc)
			} else {
				t := n.owner[vc].Shard
				w.grantOut[t] = append(w.grantOut[t], vc)
			}
		}
	}
	// Grant reception: the head VC that follows the node's round-robin
	// pointer, in ascending node order.
	for i, word := range w.rxNodes {
		w.rxNodes[i] = 0
		for ; word != 0; word &= word - 1 {
			node := w.nodeLo + i<<6 + bits.TrailingZeros64(word)
			vc := n.rxReq[node].vc
			n.rxReq[node] = rxNone
			n.rxRR[node] = int32(vc)
			w.curOrd = int32(node)
			w.eject(n.owner[vc])
		}
	}
}

// eject consumes one flit of m at its destination.
func (w *worker) eject(m *message.Message) {
	n := w.n
	head := &m.Hops[len(m.Hops)-1]
	head.Occ--
	head.Departed++
	m.Consumed++
	w.d.deliveredFlits++
	if m.Consumed == m.Len {
		m.Status = message.Delivered
		m.DeliverTime = n.now
		if m.Blocked {
			w.emitRes(ResUnblock, m.ID, message.NoVC, m.Wants)
			m.Blocked = false
			w.d.epoch++
		}
		m.Wants = nil
		w.d.deliveredCount++
		w.emitTrace(trace.Delivered, m.ID, message.NoVC, m.Dst)
	}
}

// applyAndRelease commits granted transfers for this shard's messages, then
// in one pass per message streams its source flit into the injection buffer,
// frees the VCs whose buffers the tail has fully drained and retires it when
// complete. A frozen worm has nothing to stream or release (see plan).
func (w *worker) applyAndRelease(msgs []*message.Message) {
	n := w.n
	if !w.direct {
		for _, src := range n.workers {
			for _, vc := range src.grantOut[w.id] {
				n.commit(vc)
			}
			src.grantOut[w.id] = src.grantOut[w.id][:0]
		}
	}
	for _, m := range msgs {
		if m.Status == message.Active {
			if m.Frozen {
				continue
			}
			// Source flits flow on post-transfer occupancy, so a flit
			// entering the injection buffer this cycle cannot also traverse
			// a link this cycle: one flit per cycle (dedicated channel, no
			// arbitration).
			if w.sourceFlitDue(m) {
				m.Hops[0].Occ++
				m.SrcRemaining--
				w.d.injectedFlits++
			}
		}
		w.curOrd = m.Ord
		for m.Released < len(m.Hops) && m.Hops[m.Released].Departed == int32(m.Len) {
			vc := m.Hops[m.Released].VC
			w.emitRes(ResRelease, m.ID, vc, nil)
			n.owner[vc] = nil
			if w.direct && n.IsInjection(vc) && n.queues[m.Src].len() > 0 {
				// The sequential engine stopped scanning this queue when
				// the VC was taken (see scanQueue).
				n.markQueue(m.Src)
			}
			m.Released++
			w.d.epoch++
		}
		if retired(m) {
			w.d.retired++
			w.emitDeliver(m)
		}
	}
}
