package network

import (
	"testing"

	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

func newShardedNet(t *testing.T, shards int) *Network {
	t.Helper()
	topo, err := topology.New(4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Params{Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.DOR{}, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestResolveShards(t *testing.T) {
	t.Setenv(shardsEnv, "") // CI forces the env var; empty must read as unset
	for _, c := range []struct{ req, nodes, want int }{
		{1, 16, 1},
		{4, 16, 4},
		{0, 16, 1},    // unset, no env: sequential whatever GOMAXPROCS is
		{100, 16, 16}, // clamped to nodes
		{-1, 16, 1},   // no sentinel: anything below 1 is 1
	} {
		if got := resolveShards(c.req, c.nodes); got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, want %d", c.req, c.nodes, got, c.want)
		}
	}
	t.Setenv(shardsEnv, "6")
	if got := resolveShards(0, 16); got != 6 {
		t.Errorf("resolveShards(0, 16) with %s=6 = %d, want 6", shardsEnv, got)
	}
	if got := resolveShards(2, 16); got != 2 {
		t.Errorf("explicit Shards must beat the environment, got %d", got)
	}
	for _, v := range []string{"auto", "nonsense", "4x", "99999999999999999999"} {
		t.Setenv(shardsEnv, v)
		if got := resolveShards(0, 64); got != 1 {
			t.Errorf("resolveShards must ignore a non-integer %s=%q, got %d", shardsEnv, v, got)
		}
	}
}

// TestShardPartitionCoversAllNodes checks the contiguous node-range
// partition: every node and every channel (by source node) maps to exactly
// one shard, ranges are ascending and cover [0, nodes).
func TestShardPartitionCoversAllNodes(t *testing.T) {
	n := newShardedNet(t, 5)
	defer n.Close()
	if n.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", n.Shards())
	}
	prevHi := 0
	for i, w := range n.workers {
		if w.nodeLo != prevHi {
			t.Errorf("shard %d starts at %d, want %d (contiguous)", i, w.nodeLo, prevHi)
		}
		if w.nodeHi <= w.nodeLo {
			t.Errorf("shard %d empty: [%d, %d)", i, w.nodeLo, w.nodeHi)
		}
		for node := w.nodeLo; node < w.nodeHi; node++ {
			if n.shardOfNode[node] != int32(i) {
				t.Errorf("shardOfNode[%d] = %d, want %d", node, n.shardOfNode[node], i)
			}
		}
		prevHi = w.nodeHi
	}
	if prevHi != n.topo.Nodes() {
		t.Errorf("partition covers [0, %d), want [0, %d)", prevHi, n.topo.Nodes())
	}
	for ch := 0; ch < n.topo.NumChannels(); ch++ {
		want := n.shardOfNode[n.topo.ChannelSrc(topology.ChannelID(ch))]
		if n.shardOfCh[ch] != want {
			t.Errorf("shardOfCh[%d] = %d, want %d (source-node shard)", ch, n.shardOfCh[ch], want)
		}
	}
}

// TestCloseIdempotentAndStepAfterClose pins the pool lifecycle: Close may
// be called repeatedly, and a network stepped after Close falls back to the
// sequential engine instead of deadlocking or panicking.
func TestCloseIdempotentAndStepAfterClose(t *testing.T) {
	n := newShardedNet(t, 4)
	n.Inject(0, 5, 4)
	n.Step()
	n.Close()
	n.Close()
	for i := 0; i < 20; i++ {
		n.Step() // sequential fallback must still drain the message
	}
	if n.DeliveredCount != 1 {
		t.Errorf("DeliveredCount = %d after stepping past Close, want 1", n.DeliveredCount)
	}
	if n.Close(); false {
		t.Fatal("unreachable")
	}
}

// TestActiveMessagesSorted pins the stable-iteration satellite: the slice
// is ID-ascending whatever the internal active order, and the view tracks
// membership changes.
func TestActiveMessagesSorted(t *testing.T) {
	n := newShardedNet(t, 1)
	// Inject from high node ids down so creation order differs from any
	// node-ordered internal layout.
	n.Inject(9, 2, 4)
	n.Inject(4, 8, 4)
	n.Inject(12, 1, 4)
	n.Step()
	ms := n.ActiveMessages()
	if len(ms) != 3 {
		t.Fatalf("got %d active messages, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].ID >= ms[i].ID {
			t.Fatalf("ActiveMessages not ID-sorted: %d before %d", ms[i-1].ID, ms[i].ID)
		}
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if got := len(n.ActiveMessages()); got != 0 {
		t.Errorf("ActiveMessages after drain = %d messages, want 0", got)
	}
}
