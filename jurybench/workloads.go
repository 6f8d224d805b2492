package main

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/loadgen"
	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/wire"
)

// θτ for both live workloads: juryd's default validation deadline.
const liveTimeout = 130 * time.Millisecond

// The live rates: latency, CPU and memory are taken at fixedRate, about
// a quarter of single-shard capacity on a 2-vCPU machine, and the
// capacity search starts at capacityStart.
const (
	fixedRate     float64 = 5000
	capacityStart float64 = 12000
)

// liveBenign is the single-validator fast path: no drops, so every
// trigger decides at quorum inside Submit under juryd's dispatch lock.
var liveBenign = liveSpec{
	Daemon: daemonArgs{Shards: 1, K: 2, Members: 3, Timeout: liveTimeout},
	Stream: streamSpec{FatTreeK: 8, Replicas: 2,
		Churn: loadgen.ChurnSpec{JoinRate: 200, LeaveRate: 150, FlapRate: 20}},
}

// liveShardedAlarms runs the shard plane: 1% of primaries are dropped
// (omission alarms decided at timer expiry and pushed with evidence) and
// heavy churn makes untainted ψ updates, broadcast to every shard, about
// a fifth of all envelopes.
var liveShardedAlarms = liveSpec{
	Daemon: daemonArgs{Shards: 2, K: 2, Members: 3, Timeout: liveTimeout},
	Stream: streamSpec{FatTreeK: 8, Replicas: 2, DropRate: 0.01,
		Churn: loadgen.ChurnSpec{JoinRate: 1500, LeaveRate: 1500, FlapRate: 200}},
}

// Run sizes, as shares of --seconds.
const (
	gateWindow     = 200 * time.Millisecond // virtual window of the mapping gate
	fixedShare     = 0.75                   // fixed-rate runs, all together
	fixedRuns      = 3                      // fixed-rate runs, each on a fresh juryd
	probeShare     = 1.0 / 15               // one capacity probe
	capacitySteps  = 8                      // capacity probes per traced run
	setupStarts    = 25                     // juryd starts timed for setup_s, per batch
	simLoadPerRep  = 500 * time.Millisecond // virtual load of one sim repetition
	simSecsPerRep  = 2.5                    // --seconds budgeted per sim repetition
	simSetupPerRep = 2                      // setup-only sim processes after each repetition
	simPairs       = 2                      // sim sub-seeds run twice, for the determinism gate
	minFixedWindow = 500 * time.Millisecond
	minProbeWindow = 300 * time.Millisecond
)

func share(seconds int, f float64, floor time.Duration) time.Duration {
	return max(floor, time.Duration(float64(seconds)*f*float64(time.Second)).Round(time.Millisecond))
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"capacity_tps", "1/s"},
	{"loadgen.next_ns", "ns"},
	{"loadgen.lag_p99_ms", "ms"},
	{"wire.client.send_ns", "ns"},
	{"wire.client.backlog_max", "count"},
	{"wire.client.dropped", "count"},
	{"wire.client.reconnects", "count"},
	{"wire.codec.encode_ns", "ns"},
	{"wire.codec.decode_ns", "ns"},
	{"wire.codec.bytes_per_env", "bytes"},
	{"wire.server.responses", "count"},
	{"wire.server.push_errors", "count"},
	{"wire.server.line_errors", "count"},
	{"wire.push_ratio", "ratio"},
	{"shard.submit_ns", "ns"},
	{"shard.queue_hwm", "count"},
	{"shard.overflow_stalls", "count"},
	{"shard.partition_x", "ratio"},
	{"shard.broadcast_frac", "frac"},
	{"core.submit_ns", "ns"},
	{"core.allocs_per_trigger", "count"},
	{"core.bytes_per_trigger", "bytes"},
	{"core.pending_max", "count"},
	{"core.timeouts", "count"},
	{"sim.self.core", "frac"},
	{"sim.self.controller", "frac"},
	{"sim.self.store", "frac"},
	{"sim.self.simnet", "frac"},
	{"sim.self.openflow", "frac"},
	{"sim.self.dataplane", "frac"},
	{"sim.self.runtime", "frac"},
	{"sim.self.other", "frac"},
	{"sim.alloc_bytes_per_trigger", "bytes"},
	{"sim.engine_events", "count"},
	{"sim.validator_msgs", "count"},
	{"sim.store_repl_msgs", "count"},
	{"sim.ingress_drops", "count"},
	{"sim.alarms", "count"},
	{"decide_p50_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"error_frac", "frac"},
	{"alarm_p99_ms", "ms"},
	{"unattributed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

func newReport(trace bool) *report {
	r := &report{result: result{Correct: true, Metrics: map[string]metric{}}}
	if trace {
		for _, m := range perLayer {
			r.set(m.name, 0, m.unit, 0)
		}
	}
	return r
}

// p returns the q-quantile of a copy of xs.
func p(xs []float64, q float64) float64 { return quantile(append([]float64(nil), xs...), q) }

func runLive(opt options, spec liveSpec) (*report, error) {
	if opt.Juryd == "" {
		return nil, fmt.Errorf("live workloads need -juryd")
	}
	fab, err := newFabric(spec.Stream.FatTreeK)
	if err != nil {
		return nil, err
	}
	spec.Stream.RootSeed = opt.Seed
	rep := newReport(opt.Trace)

	gs := spec.Stream
	gs.Rate, gs.Window = fixedRate, gateWindow
	err = checkMapping(fab, gs, spec.Daemon.Shards, spec.Daemon.Timeout)
	rep.gate(err == nil, "event→response mapping replays loadgen.RunCampaign exactly (rate %g, window %v): %v", gs.Rate, gs.Window, errText(err))

	ref := spec.Stream
	ref.Rate, ref.Window = fixedRate, share(opt.Seconds, fixedShare/fixedRuns, minFixedWindow)
	sched, err := compressed(ref, fab, ref.Rate, ref.Window)
	if err != nil {
		return nil, err
	}
	var fixed []*probe
	var cpus, rss, setups []float64
	// setup_s is sampled in batches before, between and after the fixed
	// windows, so machine speed drifting over the run moves every batch
	// alike instead of setting the whole median.
	sampleSetup := func() error {
		if opt.Trace {
			return nil
		}
		xs, err := setupTimes(opt.Juryd, spec.Daemon)
		setups = append(setups, xs...)
		return err
	}
	for i := 0; i < fixedRuns; i++ {
		if err := sampleSetup(); err != nil {
			return nil, err
		}
		pr, err := fixedProbe(opt, fab, spec, sched, false)
		if err != nil {
			return nil, err
		}
		fixed = append(fixed, pr)
		rep.Attempted += pr.Triggers
		rep.Failed += pr.Errors
		rep.gate(pr.lagValid(), "generator lateness p99 %v within %v at %g/s", pr.LagP99, lagBound, fixedRate)
		rep.gate(pr.Errors == 0, "%d wrong, missing or duplicate verdicts (%d duplicates) for %d triggers at %g/s (%d omission alarms expected)",
			pr.Errors, pr.Duplicates, pr.Triggers, fixedRate, pr.Omissions)
		rep.gate(pr.Dropped == 0, "client shed %d envelopes at the fixed rate", pr.Dropped)
		cpus = append(cpus, float64(pr.ServerCPU.Microseconds())/float64(max(pr.Triggers, 1)))
		rss = append(rss, pr.PeakRSSMB)
		rep.note("fixed window cpu=%.1fus/trigger rss=%.1fMiB p50=%.2fms p99=%.1fms lag_p99=%v setup=%v",
			cpus[i], rss[i], p(pr.Benign, 0.5), p(pr.Benign, 0.99), pr.LagP99.Round(time.Microsecond), pr.Setup.Round(time.Microsecond))
	}
	cpuPerTrig := median(cpus)

	if opt.Trace {
		return traceLive(opt, fab, spec, rep, fixed, cpuPerTrig, sched)
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	for _, pr := range fixed {
		setups = append(setups, pr.Setup.Seconds())
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("cpu_us_per_trigger", cpuPerTrig, "us", len(cpus))
	rep.set("peak_rss_mb", median(rss), "MiB", len(rss))
	return rep, nil
}

// setupTimes starts and stops juryd setupStarts times, timing each from
// exec to an accepted client dial.
func setupTimes(bin string, args daemonArgs) ([]float64, error) {
	var out []float64
	for i := 0; i < setupStarts; i++ {
		d, err := startDaemon(bin, args)
		if err != nil {
			return nil, err
		}
		c, err := wire.DialConfig(d.addr, wire.ClientConfig{Codec: wire.CodecBinary})
		if err != nil {
			d.kill()
			return nil, err
		}
		out = append(out, time.Since(d.started).Seconds())
		if err := c.Close(); err != nil {
			d.kill()
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fixedProbe runs the fixed-rate window, retrying once when the
// generator itself fell behind: a late generator measures the harness,
// so that run is invalid rather than a slow server.
func fixedProbe(opt options, fab fabric, spec liveSpec, sched schedule, traced bool) (*probe, error) {
	pr, err := runProbe(opt.Juryd, fab, spec, sched, traced)
	if err != nil || pr.lagValid() {
		return pr, err
	}
	return runProbe(opt.Juryd, fab, spec, sched, traced)
}

// traceLive is the instrumented run: the fixed-rate window again with
// Client.Send timed and Backlog sampled, then the byte-identical stream
// replayed in process through each layer.
func traceLive(opt options, fab fabric, spec liveSpec, rep *report, plain []*probe, cpuPerTrig float64, sched schedule) (*report, error) {
	traced, err := fixedProbe(opt, fab, spec, sched, true)
	if err != nil {
		return nil, err
	}
	rep.gate(traced.Errors == 0 && traced.lagValid(), "traced run: %d errors, generator lateness p99 %v", traced.Errors, traced.LagP99)
	lc, err := replayLayers(fab, sched, spec.Daemon.Shards, spec.Daemon.Timeout)
	rep.gate(err == nil, "in-process replay decides every trigger as ground truth: %v", errText(err))
	if err != nil {
		return rep, nil
	}
	capacity, probes, err := searchCapacity(opt.Juryd, fab, spec, capacityStart, share(opt.Seconds, probeShare, minProbeWindow), capacitySteps)
	if err != nil {
		return nil, err
	}
	rep.gate(capacity > 0, "capacity search found a sustained rate (%d probes)", len(probes))
	for _, pr := range probes {
		rep.note("probe rate=%.0f sustained=%v errors=%d shed=%d p99=%.1fms growth=%v lag_p99=%v",
			pr.Rate, pr.sustained(spec.Daemon.Timeout), pr.Errors, pr.Dropped, p(pr.Benign, 0.99),
			pr.Growth.Round(time.Microsecond), pr.LagP99.Round(time.Microsecond))
	}
	rep.set("capacity_tps", capacity, "1/s", len(probes))
	rep.gate(lc.WireDigest == traced.WireDigest && lc.Envelopes == traced.Envelopes,
		"replay stream is byte-identical to the live stream (%d envelopes, digest %016x)", lc.Envelopes, lc.WireDigest)

	n := int(traced.Triggers)
	rep.set("loadgen.next_ns", traced.NextNS, "ns", int(traced.Events))
	rep.set("loadgen.lag_p99_ms", ms(traced.LagP99), "ms", int(traced.Envelopes))
	rep.set("wire.client.send_ns", traced.SendNS, "ns", int(traced.Envelopes))
	rep.set("wire.client.backlog_max", float64(traced.BacklogMax), "count", 1)
	rep.set("wire.client.dropped", float64(traced.Dropped), "count", 1)
	rep.set("wire.client.reconnects", float64(traced.Reconnects), "count", 1)
	rep.set("wire.codec.encode_ns", lc.EncodeNS, "ns", int(lc.Envelopes))
	rep.set("wire.codec.decode_ns", lc.DecodeNS, "ns", int(lc.Envelopes))
	rep.set("wire.codec.bytes_per_env", lc.BytesPerEnv, "bytes", int(lc.Envelopes))
	rep.set("wire.server.responses", traced.Server["jury_wire_responses_total"], "count", 1)
	rep.set("wire.server.push_errors", traced.Server["jury_wire_push_errors_total"], "count", 1)
	rep.set("wire.server.line_errors", traced.Server["jury_wire_line_errors_total"], "count", 1)
	if decided := traced.Server["jury_validator_decided_total"]; decided > 0 {
		rep.set("wire.push_ratio", float64(traced.Received)/decided, "ratio", n)
	}
	rep.set("shard.submit_ns", lc.ShardNS, "ns", int(lc.Envelopes))
	rep.set("shard.queue_hwm", float64(lc.ShardQueueHWM), "count", 1)
	rep.set("shard.overflow_stalls", lc.ShardOverflow, "count", 1)
	rep.set("shard.partition_x", lc.PartitionX, "ratio", n)
	rep.set("shard.broadcast_frac", lc.BroadcastFrac, "frac", int(lc.Envelopes))
	rep.set("core.submit_ns", lc.CoreNS, "ns", int(lc.Envelopes))
	rep.set("core.allocs_per_trigger", lc.CoreAllocs, "count", n)
	rep.set("core.bytes_per_trigger", lc.CoreBytes, "bytes", n)
	rep.set("core.pending_max", float64(lc.CorePendingMax), "count", 1)
	rep.set("core.timeouts", float64(lc.CoreTimeouts), "count", 1)
	rep.set("error_frac", float64(traced.Errors)/float64(max(traced.Triggers, 1)), "frac", n)
	alarms := traced.Alarm
	for _, pr := range plain {
		alarms = append(alarms, pr.Alarm...)
	}
	if len(alarms) > 0 {
		rep.set("alarm_p99_ms", p(alarms, 0.99), "ms", len(alarms))
	}
	// The server-side layers a trigger crosses: its envelopes decoded,
	// then validated by one validator (juryd -shards 1) or the plane.
	validate := lc.CoreCPUPerTrig
	if spec.Daemon.Shards > 1 {
		validate = lc.ShardCPUPerTrig
	}
	envPerTrig := float64(lc.Envelopes) / float64(max(lc.Triggers, 1))
	replayed := lc.DecodeNS*envPerTrig/1e3 + validate
	rep.set("unattributed_frac", 1-replayed/cpuPerTrig, "frac", n)
	var p50s, p99s []float64
	for _, pr := range plain {
		p50s = append(p50s, p(pr.Benign, 0.5))
		p99s = append(p99s, p(pr.Benign, 0.99))
	}
	rep.set("decide_p50_ms", median(p50s), "ms", len(p50s))
	rep.set("decide_p99_ms", median(p99s), "ms", len(p99s))
	rep.set("trace_overhead_frac", p(traced.Benign, 0.5)/median(p50s)-1, "frac", len(traced.Benign))
	return rep, nil
}

// simSpecFor is sim-onos-k6's repetition for a seed: the Fig. 4h
// deployment under one period of a square burst peaking at Fig. 4h's
// 8000 flows/s, with a host join every 100 ms and a link flap every
// 250 ms.
func simSpecFor(seed int64) simSpec {
	return simSpec{
		Seed: seed, Load: simLoadPerRep, Drain: 300 * time.Millisecond,
		BaseRate: 2000, PeakRate: 8000, Period: simLoadPerRep, Duty: 0.35,
		JoinEvery: 100 * time.Millisecond, FlapEvery: 250 * time.Millisecond,
	}
}

func runSimWorkload(opt options) (*report, error) {
	rep := newReport(opt.Trace)
	reps := max(2, int(float64(opt.Seconds)/simSecsPerRep))
	// The first simPairs sub-seeds run twice each, which proves the
	// simulation deterministic; every later repetition runs a sub-seed of
	// its own, so no one draw of link flaps and flow paths sets the whole
	// run's cost.
	var outs []simOut
	var setups []float64 // every jury.New + Boot, repetitions and setup-only processes
	var totals simOut    // deterministic counts summed over sub-seeds
	same := true
	subs := 0
	for i := 0; i < reps; i++ {
		sub := i - simPairs // sub-seeds 0..simPairs-1 fill the first 2×simPairs repetitions
		if i < 2*simPairs {
			sub = i / 2
		}
		o, err := runSim(simSpecFor(subSeed(opt.Seed, sub)))
		if err != nil {
			return nil, err
		}
		if i < 2*simPairs && i%2 == 1 {
			same = same && o.counts() == outs[i-1].counts()
		} else {
			totals.add(o)
			subs++
		}
		outs = append(outs, o)
		setups = append(setups, float64(o.SetupNS)/1e9)
		for j := 0; j < simSetupPerRep && !opt.Trace; j++ {
			spec := simSpecFor(subSeed(opt.Seed, sub))
			spec.SetupOnly = true
			so, err := runSim(spec)
			if err != nil {
				return nil, err
			}
			setups = append(setups, float64(so.SetupNS)/1e9)
		}
	}
	var profiled simOut
	if opt.Trace {
		ps := simSpecFor(subSeed(opt.Seed, 0))
		ps.Profile = true
		var err error
		if profiled, err = runSim(ps); err != nil {
			return nil, err
		}
		same = same && profiled.counts() == outs[0].counts()
	}
	rep.gate(same, "deterministic counts agree between same-seed repetitions (%d sub-seeds, %d of them run twice)",
		subs, min(simPairs, reps/2))
	// The load is benign, so every alarm is a wrong verdict and counts
	// as failed. Only the known false positive, a primary that fell
	// behind the deadline (README, "Known false alarm"), is let through
	// the gate; any other alarm fails the run.
	rep.gate(totals.Faults == totals.LateAlarms,
		"benign simulation raised %d alarms in %d decisions, %d of them not on a late primary",
		totals.Faults, totals.Decided, totals.Faults-totals.LateAlarms)
	rep.gate(totals.Decided > 0, "simulation decided %d triggers", totals.Decided)
	rep.Attempted, rep.Failed = totals.Decided, totals.Faults

	rate := func(o simOut) float64 { return float64(o.Decided) / (float64(o.RunNS) / 1e9) }
	var rates, cpus, rss, allocs []float64
	for _, o := range outs {
		rep.note("repetition decided=%d setup=%.1fms run=%.2fs rate=%.0f/s cpu=%.0fus/trigger rss=%.1fMiB",
			o.Decided, float64(o.SetupNS)/1e6, float64(o.RunNS)/1e9, rate(o), float64(o.CPUNS)/1e3/float64(o.Decided), o.PeakMB)
		rates = append(rates, rate(o))
		cpus = append(cpus, float64(o.CPUNS)/1e3/float64(o.Decided))
		rss = append(rss, o.PeakMB)
		allocs = append(allocs, float64(o.Alloc)/float64(o.Decided))
	}
	if !opt.Trace {
		rep.set("setup_s", median(setups), "s", len(setups))
		rep.set("cpu_us_per_trigger", median(cpus), "us", len(cpus))
		rep.set("peak_rss_mb", median(rss), "MiB", len(rss))
		return rep, nil
	}
	n := int(totals.Decided)
	rep.set("capacity_tps", median(rates), "1/s", len(rates))
	for _, l := range simLayers {
		rep.set("sim.self."+l, profiled.Layers[l], "frac", int(profiled.Decided))
	}
	rep.set("sim.alloc_bytes_per_trigger", median(allocs), "bytes", len(allocs))
	rep.set("sim.engine_events", float64(totals.EngineEvents), "count", 1)
	rep.set("sim.validator_msgs", float64(totals.ValidatorMsgs), "count", 1)
	rep.set("sim.store_repl_msgs", float64(totals.StoreReplMsgs), "count", 1)
	rep.set("sim.ingress_drops", float64(totals.IngressDrops), "count", 1)
	rep.set("sim.alarms", float64(totals.Faults), "count", 1)
	rep.set("error_frac", float64(totals.Faults)/float64(totals.Decided), "frac", n)
	rep.set("unattributed_frac", profiled.Layers["other"], "frac", int(profiled.Decided))
	// The profiled repetition reruns sub-seed 0, so it is compared with
	// that sub-seed's two unprofiled repetitions only.
	rep.set("trace_overhead_frac", median(rates[:2])/rate(profiled)-1, "frac", 2)
	return rep, nil
}

// subSeed derives the simulation seed of sub-seed i of a run.
func subSeed(seed int64, i int) int64 {
	return sweep.DeriveSeed(seed, fmt.Sprintf("sim-onos-k6/%d", i))
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
