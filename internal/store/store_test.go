package store

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/jurysdn/jury/internal/simnet"
)

func newEventualCluster(t *testing.T, n int) (*simnet.Engine, *Cluster, []*Node) {
	t.Helper()
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Eventual))
	var nodes []*Node
	for i := 1; i <= n; i++ {
		nodes = append(nodes, c.AddNode(NodeID(i)))
	}
	return eng, c, nodes
}

func TestEventualLocalApplyImmediate(t *testing.T) {
	_, _, nodes := newEventualCluster(t, 3)
	done := false
	nodes[0].Write(HostDB, OpCreate, "k", "v", func() { done = true })
	if !done {
		t.Fatal("eventual write done callback must fire immediately")
	}
	if v, ok := nodes[0].Get(HostDB, "k"); !ok || v != "v" {
		t.Fatal("local apply missing")
	}
	if _, ok := nodes[1].Get(HostDB, "k"); ok {
		t.Fatal("remote replica applied without delay")
	}
}

func TestEventualConvergence(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 5)
	for i := 0; i < 50; i++ {
		nodes[i%5].Write(HostDB, OpCreate, fmt.Sprintf("k%d", i), "v", nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Len(HostDB) != 50 {
			t.Fatalf("node %d has %d entries, want 50", n.ID(), n.Len(HostDB))
		}
	}
	// Digests converge (order-insensitive).
	for _, n := range nodes[1:] {
		if n.Digest() != nodes[0].Digest() {
			t.Fatalf("digest mismatch: %x vs %x", n.Digest(), nodes[0].Digest())
		}
	}
}

func TestEventualPerOriginOrder(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var got []string
	nodes[1].Subscribe(func(_ NodeID, ev Event, local bool) {
		if !local {
			got = append(got, ev.Value)
		}
	})
	for i := 0; i < 20; i++ {
		nodes[0].Write(HostDB, OpUpdate, "k", fmt.Sprintf("v%d", i), nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if v, _ := nodes[1].Get(HostDB, "k"); v != "v19" {
		t.Fatalf("final value = %s", v)
	}
}

func TestDeleteRemovesKey(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	nodes[0].Write(FlowsDB, OpCreate, "k", "v", nil)
	nodes[0].Write(FlowsDB, OpDelete, "k", "", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if _, ok := n.Get(FlowsDB, "k"); ok {
			t.Fatalf("node %d still has deleted key", n.ID())
		}
	}
}

func TestStrongWriteSynchronous(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	n2 := c.AddNode(2)
	n3 := c.AddNode(3)
	var doneAt time.Duration
	n1.Write(HostDB, OpCreate, "k", "v", func() { doneAt = eng.Now() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Commit cost = base + 2 × replication latency = 0.5ms + 2ms.
	want := 2500 * time.Microsecond
	if doneAt != want {
		t.Fatalf("commit at %v, want %v", doneAt, want)
	}
	for _, n := range []*Node{n1, n2, n3} {
		if _, ok := n.Get(HostDB, "k"); !ok {
			t.Fatalf("node %d missing entry after commit", n.ID())
		}
	}
}

func TestStrongWritesSerialize(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	c.AddNode(2)
	var times []time.Duration
	for i := 0; i < 3; i++ {
		n1.Write(HostDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() {
			times = append(times, eng.Now())
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	per := 1500 * time.Microsecond // base 0.5ms + 1 replica × 1ms
	for i, at := range times {
		want := time.Duration(i+1) * per
		if at != want {
			t.Fatalf("commit %d at %v, want %v", i, at, want)
		}
	}
}

func TestStrongCommitCostGrowsWithN(t *testing.T) {
	rate := func(n int) float64 {
		eng := simnet.NewEngine(1)
		c := NewCluster(eng, DefaultConfig(Strong))
		var nodes []*Node
		for i := 1; i <= n; i++ {
			nodes = append(nodes, c.AddNode(NodeID(i)))
		}
		count := 0
		for i := 0; i < 100; i++ {
			nodes[0].Write(FlowsDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() { count++ })
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return float64(count) / eng.Now().Seconds()
	}
	r1, r7 := rate(1), rate(7)
	if r7 >= r1/3 {
		t.Fatalf("strong writes must slow with n: n=1 %.0f/s vs n=7 %.0f/s", r1, r7)
	}
}

func TestFlowBusSerializesFlowsDBOnly(t *testing.T) {
	eng := simnet.NewEngine(1)
	cfg := DefaultConfig(Eventual)
	cfg.FlowBusService = time.Millisecond
	c := NewCluster(eng, cfg)
	n1 := c.AddNode(1)
	c.AddNode(2)
	// Non-FlowsDB writes bypass the bus: done fires immediately.
	immediate := false
	n1.Write(HostDB, OpCreate, "h", "v", func() { immediate = true })
	if !immediate {
		t.Fatal("HostDB write should bypass the flow bus")
	}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		n1.Write(FlowsDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() {
			times = append(times, eng.Now())
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, at := range times {
		want := time.Duration(i+1) * time.Millisecond
		if at != want {
			t.Fatalf("bus commit %d at %v, want %v", i, at, want)
		}
	}
}

func TestFlowBusDisabledAtN1(t *testing.T) {
	eng := simnet.NewEngine(1)
	cfg := DefaultConfig(Eventual)
	cfg.FlowBusService = time.Millisecond
	c := NewCluster(eng, cfg)
	n1 := c.AddNode(1)
	done := false
	n1.Write(FlowsDB, OpCreate, "k", "v", func() { done = true })
	if !done {
		t.Fatal("single-node cluster must not pay the backup bus")
	}
}

func TestListenersSeeLocalAndRemote(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var locals, remotes int
	nodes[0].Subscribe(func(_ NodeID, _ Event, local bool) {
		if local {
			locals++
		} else {
			remotes++
		}
	})
	nodes[0].Write(HostDB, OpCreate, "a", "1", nil)
	nodes[1].Write(HostDB, OpCreate, "b", "2", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if locals != 1 || remotes != 1 {
		t.Fatalf("locals=%d remotes=%d", locals, remotes)
	}
}

func TestEventTagPropagates(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var gotTag string
	nodes[1].Subscribe(func(_ NodeID, ev Event, _ bool) { gotTag = ev.Tag })
	nodes[0].WriteTagged(FlowsDB, OpCreate, "k", "v", "trigger-42", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if gotTag != "trigger-42" {
		t.Fatalf("tag = %q", gotTag)
	}
}

func TestRemoveNodeStopsReplication(t *testing.T) {
	eng, c, nodes := newEventualCluster(t, 3)
	c.RemoveNode(3)
	nodes[0].Write(HostDB, OpCreate, "k", "v", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[2].Get(HostDB, "k"); ok {
		t.Fatal("removed node received replication")
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestReplicationAccounting(t *testing.T) {
	eng, c, nodes := newEventualCluster(t, 3)
	nodes[0].Write(HostDB, OpCreate, "key", "value", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.ReplicationMessages() != 2 {
		t.Fatalf("messages = %d, want 2", c.ReplicationMessages())
	}
	if c.ReplicationBytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	evA := Event{Origin: 1, Seq: 1, Cache: HostDB, Op: OpCreate, Key: "a", Value: "1"}
	evB := Event{Origin: 2, Seq: 1, Cache: HostDB, Op: OpCreate, Key: "b", Value: "2"}
	d1 := EventDigest(evA) ^ EventDigest(evB)
	d2 := EventDigest(evB) ^ EventDigest(evA)
	if d1 != d2 {
		t.Fatal("XOR fold must be order-insensitive")
	}
}

func TestOpStrings(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpCreate, "create"},
		{OpUpdate, "update"},
		{OpDelete, "delete"},
	}
	for _, tt := range tests {
		if tt.op.String() != tt.want {
			t.Fatalf("%v != %s", tt.op, tt.want)
		}
		back, err := ParseOp(tt.want)
		if err != nil || back != tt.op {
			t.Fatalf("ParseOp(%s) = %v, %v", tt.want, back, err)
		}
	}
	if _, err := ParseOp("truncate"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestConsistencyStrings(t *testing.T) {
	if Eventual.String() != "eventual" || Strong.String() != "strong" {
		t.Fatal("consistency names wrong")
	}
}

func TestEventualDigestsConvergeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := simnet.NewEngine(11)
		c := NewCluster(eng, DefaultConfig(Eventual))
		var nodes []*Node
		for i := 1; i <= 3; i++ {
			nodes = append(nodes, c.AddNode(NodeID(i)))
		}
		for i, op := range ops {
			n := nodes[int(op)%3]
			switch (op / 3) % 3 {
			case 0:
				n.Write(HostDB, OpCreate, fmt.Sprintf("k%d", i%7), "v", nil)
			case 1:
				n.Write(HostDB, OpUpdate, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i), nil)
			case 2:
				n.Write(HostDB, OpDelete, fmt.Sprintf("k%d", i%7), "", nil)
			}
		}
		if err := eng.RunUntilIdle(); err != nil {
			return false
		}
		// Digests converge (same applied set). Map contents may differ
		// when independent origins race on one key: replicas apply in
		// arrival order (last-arrival-wins, like an unversioned
		// Hazelcast map), which is exactly the inconsistency JURY's
		// state-aware consensus has to tolerate.
		for _, n := range nodes[1:] {
			if n.Digest() != nodes[0].Digest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedOriginDoesNotCommitStrongWrite(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	n2 := c.AddNode(2)
	fired := false
	n1.Write(HostDB, OpCreate, "k", "v", func() { fired = true })
	c.RemoveNode(1) // crash before commit completes
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("crashed origin's write committed")
	}
	if _, ok := n2.Get(HostDB, "k"); ok {
		t.Fatal("replica applied write from crashed origin")
	}
}

// fmtEventDigest is the fmt rendering eventDigest replaced; node digests
// fold these hashes, so the hashed bytes must not change.
func fmtEventDigest(ev Event) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%d|%s|%s", ev.Origin, ev.Seq, ev.Cache, ev.Op, ev.Key, ev.Value)
	return h.Sum64()
}

func TestEventDigestBytes(t *testing.T) {
	golden := []struct {
		ev   Event
		want uint64
	}{
		{Event{Origin: 3, Seq: 17, Cache: FlowsDB, Op: OpUpdate, Key: "of:0000000000000003/abc", Value: `{"x":"τ"}`}, 7617276585137608877},
		{Event{Origin: -1, Cache: HostDB, Op: OpDelete}, 13386782200364356992},
	}
	for _, g := range golden {
		if got := EventDigest(g.ev); got != g.want {
			t.Fatalf("EventDigest(%+v) = %d, want %d", g.ev, got, g.want)
		}
	}
	rng := rand.New(rand.NewSource(9))
	caches := []CacheName{FlowsDB, HostDB, LinksDB, SwitchDB, "x|y"}
	for i := 0; i < 2000; i++ {
		ev := Event{
			Origin: NodeID(rng.Int63() - rng.Int63()),
			Seq:    rng.Uint64() >> uint(rng.Intn(64)),
			Cache:  caches[rng.Intn(len(caches))],
			Op:     Op(rng.Intn(256)),
			Key:    fmt.Sprint(rng.Int()),
			Value:  fmt.Sprintf("v|%x|τ", rng.Int63()),
		}
		if got, want := EventDigest(ev), fmtEventDigest(ev); got != want {
			t.Fatalf("EventDigest(%+v) = %d, fmt rendering = %d", ev, got, want)
		}
	}
}
