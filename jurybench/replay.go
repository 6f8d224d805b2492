package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/loadgen"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/wire"
)

// membership is the governance map loadgen's campaign validates
// against: members 1..replicas+1 over the fabric's switches.
func membership(fab fabric, replicas int) *cluster.Membership {
	members := make([]store.NodeID, replicas+1)
	for i := range members {
		members[i] = store.NodeID(i + 1)
	}
	return cluster.NewMembership(cluster.AnyControllerOneMaster, members, fab.dpids)
}

// collect materializes a scheduled stream: its responses in send order,
// each stamped with the virtual time it is sent at, and the mapper's
// counts and digest.
func collect(sched schedule, fab fabric) ([]core.Response, *mapper, error) {
	m, err := newMapper(sched.stream, fab)
	if err != nil {
		return nil, nil, err
	}
	m.horizon = sched.horizon
	var out []core.Response
	for {
		st, ok := m.next()
		if !ok {
			return out, m, nil
		}
		for _, r := range st.resps {
			r.At = sched.due(r.At)
			out = append(out, r)
		}
	}
}

// checkMapping is the mapping gate: it runs loadgen.RunCampaign for one
// point and replays this benchmark's own event→response mapping into a
// shard plane configured the same way. Counts and stream digest must
// agree exactly, or the live workloads would not be the campaign's.
func checkMapping(fab fabric, ss streamSpec, shards int, timeout time.Duration) error {
	want, seed, err := campaignPoint(ss, shards, timeout)
	if err != nil {
		return err
	}
	got, err := replayPoint(fab, ss, shards, timeout, seed)
	if err != nil {
		return err
	}
	if !samePoint(got, want) {
		return fmt.Errorf("mapping gate: replay %+v differs from campaign %+v", got, want)
	}
	if want.Decided == 0 {
		return fmt.Errorf("mapping gate: campaign decided nothing")
	}
	return nil
}

// campaignPoint runs one loadgen campaign point and returns its result
// and the plane seed the campaign derived for it.
func campaignPoint(ss streamSpec, shards int, timeout time.Duration) (loadgen.PointResult, int64, error) {
	out, err := loadgen.RunCampaign(context.Background(), loadgen.CampaignConfig{
		K:           ss.FatTreeK,
		Rates:       []float64{ss.Rate},
		Shards:      []int{shards},
		Window:      ss.Window,
		Replicas:    ss.Replicas,
		Timeout:     timeout,
		DropRate:    ss.DropRate,
		Churn:       ss.Churn,
		RootSeed:    ss.RootSeed,
		Parallelism: 1,
	})
	if err != nil {
		return loadgen.PointResult{}, 0, fmt.Errorf("mapping gate: campaign: %w", err)
	}
	return out[0].Result, out[0].Seed, nil
}

// replayPoint streams this benchmark's mapping into a shard plane set up
// as the campaign sets up its own.
func replayPoint(fab fabric, ss streamSpec, shards int, timeout time.Duration, seed int64) (loadgen.PointResult, error) {
	resps, m, err := collect(natural(ss, ss.Rate, ss.Window), fab)
	if err != nil {
		return loadgen.PointResult{}, err
	}
	plane, err := shard.New(shard.Config{
		Shards:            shards,
		Validator:         core.ValidatorConfig{K: ss.Replicas, Timeout: timeout},
		Members:           membership(fab, ss.Replicas),
		TimeFromResponses: true,
		Seed:              seed,
	})
	if err != nil {
		return loadgen.PointResult{}, err
	}
	for _, r := range resps {
		plane.Submit(r)
	}
	plane.Close()
	return loadgen.PointResult{
		Events: uint64(m.Events), Triggers: m.Triggers,
		Decided: plane.Decided(), Valid: plane.Valid(),
		Faults: plane.Faults(), Timeouts: plane.Timeouts(),
		Digest: m.Digest(),
	}, nil
}

// samePoint compares the deterministic outcome the gate checks.
func samePoint(a, b loadgen.PointResult) bool {
	return a.Events == b.Events && a.Triggers == b.Triggers &&
		a.Decided == b.Decided && a.Valid == b.Valid &&
		a.Faults == b.Faults && a.Timeouts == b.Timeouts && a.Digest == b.Digest
}

// layerCosts are the replayed per-layer costs of one envelope stream.
type layerCosts struct {
	Envelopes, Triggers int64
	WireDigest          uint64 // FNV-1a64 over every encoded frame

	EncodeNS    float64 // AppendEnvelope, per envelope
	DecodeNS    float64 // BinDecoder.Decode + CloneResponse, per envelope
	BytesPerEnv float64

	CoreNS          float64 // engine advance + Validator.Submit, per envelope
	CoreCPUPerTrig  float64 // µs of process CPU per trigger, whole core phase
	CoreAllocs      float64 // heap allocations per trigger
	CoreBytes       float64 // heap bytes per trigger
	CorePendingMax  int
	CoreTimeouts    int64
	ShardNS         float64 // Plane.Submit (dispatcher side), per envelope
	ShardCPUPerTrig float64 // µs of process CPU per trigger, plane phase
	ShardQueueHWM   int
	ShardOverflow   float64
	PartitionX      float64
	BroadcastFrac   float64
}

// replayLayers replays the envelope stream of a live run, on the run's
// schedule, in process and times each layer from outside: the codec both
// ways, a single core.Validator (juryd -shards 1), and a shard.Plane of
// the workload's width in its deterministic TimeFromResponses mode. Each
// layer's verdicts are checked against the stream's ground truth.
func replayLayers(fab fabric, sched schedule, shards int, timeout time.Duration) (layerCosts, error) {
	ss := sched.stream
	resps, m, err := collect(sched, fab)
	if err != nil {
		return layerCosts{}, err
	}
	lc := layerCosts{Envelopes: int64(len(resps)), Triggers: m.Triggers}
	n := float64(len(resps))
	trig := float64(max(m.Triggers, 1))
	lc.BroadcastFrac = float64(m.Untainted) / n

	// Codec: encode every envelope as the client's writer does, then
	// decode the frames as the server's reader does.
	buf := make([]byte, 0, 128*len(resps))
	start := time.Now()
	for i := range resps {
		env := wire.Envelope{Type: wire.TypeResponse, Response: &resps[i]}
		buf = wire.AppendEnvelope(buf, &env)
	}
	lc.EncodeNS = float64(time.Since(start).Nanoseconds()) / n
	lc.BytesPerEnv = float64(len(buf)) / n
	h := fnv.New64a()
	h.Write(buf) // hash.Hash.Write never fails
	lc.WireDigest = h.Sum64()
	decoded := make([]core.Response, len(resps))
	var dec wire.BinDecoder
	start = time.Now()
	for i, off := 0, 0; i < len(resps); i++ {
		size, pn := binary.Uvarint(buf[off:])
		env, err := dec.Decode(buf[off+pn : off+pn+int(size)])
		if err != nil || env.Response == nil {
			return lc, fmt.Errorf("replay: decode envelope %d: %v", i, err)
		}
		decoded[i] = wire.CloneResponse(*env.Response)
		off += pn + int(size)
	}
	lc.DecodeNS = float64(time.Since(start).Nanoseconds()) / n
	for i := range resps {
		if decoded[i] != resps[i] {
			return lc, fmt.Errorf("replay: envelope %d changed across the codec", i)
		}
	}

	// Core: one validator on one engine, time advanced to each
	// response's virtual timestamp — what juryd -shards 1 runs.
	eng := simnet.NewEngine(0)
	v := core.NewValidator(eng, membership(fab, ss.Replicas), core.ValidatorConfig{K: ss.Replicas, Timeout: timeout})
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	start = time.Now()
	for i := range decoded {
		if at := decoded[i].At; at > eng.Now() {
			if err := eng.Run(at); err != nil {
				return lc, fmt.Errorf("core replay: %w", err)
			}
		}
		v.Submit(decoded[i])
		if p := v.Pending(); p > lc.CorePendingMax {
			lc.CorePendingMax = p
		}
	}
	lc.CoreNS = float64(time.Since(start).Nanoseconds()) / n
	if err := eng.Run(eng.Now() + 2*timeout); err != nil { // expire the remaining deadlines
		return lc, fmt.Errorf("core replay: %w", err)
	}
	lc.CoreCPUPerTrig = float64((selfCPU() - cpu0).Microseconds()) / trig
	runtime.ReadMemStats(&ms1)
	lc.CoreAllocs = float64(ms1.Mallocs-ms0.Mallocs) / trig
	lc.CoreBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / trig
	lc.CoreTimeouts = v.Timeouts()
	if err := checkCounts("core replay", v.Decided(), v.Valid(), v.Faults(), m); err != nil {
		return lc, err
	}

	// Shard plane at the workload's width.
	plane, err := shard.New(shard.Config{
		Shards:            shards,
		Validator:         core.ValidatorConfig{K: ss.Replicas, Timeout: timeout},
		Members:           membership(fab, ss.Replicas),
		TimeFromResponses: true,
	})
	if err != nil {
		return lc, err
	}
	runtime.GC()
	cpu0 = selfCPU()
	start = time.Now()
	for i := range decoded {
		plane.Submit(decoded[i])
	}
	lc.ShardNS = float64(time.Since(start).Nanoseconds()) / n
	plane.Close()
	lc.ShardCPUPerTrig = float64((selfCPU() - cpu0).Microseconds()) / trig
	var bottleneck int64
	for i := 0; i < shards; i++ {
		lc.ShardQueueHWM = max(lc.ShardQueueHWM, plane.QueueHighWatermark(i))
		bottleneck = max(bottleneck, plane.ShardDecided(i))
	}
	if bottleneck > 0 {
		lc.PartitionX = float64(m.Triggers) / float64(bottleneck)
	}
	var sb strings.Builder
	if err := plane.Metrics().WritePrometheus(&sb); err != nil {
		return lc, err
	}
	lc.ShardOverflow = parseExposition(sb.String())["jury_shard_overflow_total"]
	if err := checkCounts("shard replay", plane.Decided(), plane.Valid(), plane.Faults(), m); err != nil {
		return lc, err
	}
	return lc, nil
}

// checkCounts holds a replay's verdict counts to the stream's ground
// truth: every trigger decided, dropped primaries alarmed, the rest valid.
func checkCounts(layer string, decided, valid, faults int64, m *mapper) error {
	dropped := m.Dropped
	if decided != m.Triggers || faults != dropped || valid != m.Triggers-dropped {
		return fmt.Errorf("%s: decided %d valid %d faults %d, want %d decided with %d omission alarms",
			layer, decided, valid, faults, m.Triggers, dropped)
	}
	return nil
}

// selfCPU is this process's user+system CPU time, all threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
