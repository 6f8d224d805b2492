package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/loadgen"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// streamSpec is one campaign point's workload: the fields of
// loadgen.CampaignConfig that shape the event→response stream.
type streamSpec struct {
	FatTreeK int
	Replicas int
	Rate     float64
	Window   time.Duration
	DropRate float64
	Churn    loadgen.ChurnSpec
	RootSeed int64
}

// fabric is the FatTree the stream addresses; built once per process.
type fabric struct {
	hosts uint64
	links []topo.Link
	dpids []topo.DPID
}

func newFabric(k int) (fabric, error) {
	top, err := topo.FatTree(k)
	if err != nil {
		return fabric{}, err
	}
	fab := fabric{hosts: uint64(top.NumHosts()), links: top.Links()}
	for _, sw := range top.Switches() {
		fab.dpids = append(fab.dpids, sw.DPID)
	}
	return fab, nil
}

// mapper turns the loadgen event stream of one campaign point into
// validator responses exactly as loadgen's in-process campaign point
// does: the same stream-seed and drop-seed derivation, the same
// trigger-ID format, the same keys, values and virtual timestamps. The
// mapping gate (checkMapping) proves the equivalence against
// loadgen.RunCampaign on every run.
type mapper struct {
	spec    streamSpec
	fab     fabric
	horizon time.Duration // last virtual instant mapped; spec.Window by default
	src     *loadgen.Source
	members []store.NodeID
	drop    *rand.Rand
	digest  hash.Hash64
	hbuf    [43]byte
	idbuf   [17]byte
	out     []core.Response

	Events    int64
	Triggers  int64
	Envelopes int64
	// Dropped counts triggers whose primary response was lost.
	Dropped int64
	// Untainted counts envelopes that carry no trigger: ψ updates that
	// a shard plane broadcasts to every shard.
	Untainted int64
}

func newMapper(spec streamSpec, fab fabric) (*mapper, error) {
	streamSeed := sweep.DeriveSeed(spec.RootSeed,
		fmt.Sprintf("stream/rate=%g/window=%d", spec.Rate, spec.Window))
	src, err := loadgen.NewSource(loadgen.Config{
		Hosts:    fab.hosts,
		Links:    len(fab.links),
		MeanRate: spec.Rate,
		Churn:    spec.Churn,
		Seed:     streamSeed,
	})
	if err != nil {
		return nil, err
	}
	n := spec.Replicas + 1
	members := make([]store.NodeID, n)
	for i := range members {
		members[i] = store.NodeID(i + 1)
	}
	return &mapper{
		spec:    spec,
		fab:     fab,
		horizon: spec.Window,
		src:     src,
		members: members,
		drop:    rand.New(rand.NewSource(sweep.DeriveSeed(streamSeed, "drop"))),
		digest:  fnv.New64a(),
		out:     make([]core.Response, 0, n),
	}, nil
}

// step is one mapped event: its responses (valid until the next call to
// next) and, for a flow arrival, the trigger number it opened.
type step struct {
	at      time.Duration // the event's virtual time
	resps   []core.Response
	trigger int64 // 0 when the event opens no trigger
	dropped bool  // the trigger's primary response was lost
}

// next maps the next event up to the horizon; ok is false once the
// stream crosses it.
func (m *mapper) next() (st step, ok bool) {
	ev := m.src.Next()
	if ev.At > m.horizon {
		return step{}, false
	}
	st.at = ev.At
	hashEvent(m.digest, m.hbuf[:], ev)
	m.Events++
	n := uint64(len(m.members))
	m.out = m.out[:0]
	switch ev.Kind {
	case loadgen.FlowArrival:
		m.Triggers++
		st.trigger = m.Triggers
		tid := triggerID(m.idbuf[:], m.Triggers)
		primary := m.members[ev.Src%n]
		key := fmt.Sprintf("flow/%d>%d", ev.Src, ev.Dst)
		if m.spec.DropRate <= 0 || m.drop.Float64() >= m.spec.DropRate {
			m.out = append(m.out, core.Response{
				Controller: primary, Primary: primary, Trigger: tid,
				Kind: core.CacheUpdate, Tainted: false,
				Cache: store.FlowsDB, Op: store.OpCreate,
				Key: key, Value: "fwd", StateDigest: 9,
				At: ev.At,
			})
		} else {
			st.dropped = true
			m.Dropped++
		}
		at := ev.At
		for _, sec := range m.members {
			if sec == primary {
				continue
			}
			at += time.Microsecond
			m.out = append(m.out, core.Response{
				Controller: sec, Primary: primary, Trigger: tid,
				Kind: core.SecondaryExec, Tainted: true,
				Cache: store.FlowsDB, Op: store.OpCreate,
				Key: key, Value: "fwd", StateDigest: 9,
				At: at,
			})
		}
	case loadgen.HostJoin, loadgen.HostLeave:
		op, val := store.OpUpdate, "join"
		if ev.Kind == loadgen.HostLeave {
			op, val = store.OpDelete, "gone"
		}
		m.out = append(m.out, core.Response{
			Controller: m.members[ev.Src%n],
			Kind:       core.CacheUpdate, Tainted: false,
			Cache: store.HostDB, Op: op,
			Key:   topo.HostMAC(int(ev.Src)).String(),
			Value: val, StateDigest: 9,
			At: ev.At,
		})
		m.Untainted++
	case loadgen.LinkFlap:
		val := "down"
		if ev.Up {
			val = "up"
		}
		m.out = append(m.out, core.Response{
			Controller: m.members[uint64(ev.Link)%n],
			Kind:       core.CacheUpdate, Tainted: false,
			Cache: store.LinksDB, Op: store.OpUpdate,
			Key:   m.fab.links[ev.Link].String(),
			Value: val, StateDigest: 9,
			At: ev.At,
		})
		m.Untainted++
	}
	m.Envelopes += int64(len(m.out))
	st.resps = m.out
	return st, true
}

// prefixHorizon returns the virtual time of the stream's n-th trigger,
// the horizon that cuts the stream after exactly n triggers.
func prefixHorizon(spec streamSpec, fab fabric, n int64) (time.Duration, error) {
	m, err := newMapper(spec, fab)
	if err != nil {
		return 0, err
	}
	m.horizon = math.MaxInt64
	for {
		st, _ := m.next()
		if st.trigger == n {
			return st.at, nil
		}
	}
}

// Digest is FNV-1a64 over the binary event stream so far, in the layout
// loadgen's campaign digests.
func (m *mapper) Digest() uint64 { return m.digest.Sum64() }

// triggerID renders trigger n as loadgen's campaign does: 'g' plus 16
// fixed-width hex digits.
func triggerID(buf []byte, n int64) trigger.ID {
	const digits = "0123456789abcdef"
	buf = append(buf[:0], 'g')
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, digits[(uint64(n)>>uint(shift))&0xf])
	}
	return trigger.ID(buf)
}

// triggerNum inverts triggerID; ok is false for IDs of another format.
func triggerNum(id trigger.ID) (int64, bool) {
	if len(id) != 17 || id[0] != 'g' {
		return 0, false
	}
	var n uint64
	for i := 1; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			n = n<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return int64(n), true
}

// hashEvent folds one event into the stream digest with the campaign's
// fixed 43-byte layout.
func hashEvent(h hash.Hash64, buf []byte, ev loadgen.Event) {
	binary.BigEndian.PutUint64(buf[0:], uint64(ev.At))
	buf[8] = byte(ev.Kind)
	binary.BigEndian.PutUint64(buf[9:], ev.Src)
	binary.BigEndian.PutUint64(buf[17:], ev.Dst)
	binary.BigEndian.PutUint64(buf[25:], ev.Bytes)
	binary.BigEndian.PutUint64(buf[33:], uint64(ev.Link))
	buf[41] = 0
	if ev.Up {
		buf[41] = 1
	}
	buf[42] = 0xa5
	h.Write(buf[:43]) // hash.Hash.Write never fails
}
