package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/workload"
)

// simWorkerEnv carries a simSpec to a re-executed copy of this program,
// which then runs one simulation and prints a simOut. Each repetition
// gets a process of its own so its CPU time and peak RSS are its own.
const simWorkerEnv = "JURYBENCH_SIM_WORKER"

// simSpec is one sim-onos-k6 repetition: the paper's Fig. 4h deployment
// (ONOS, n=7, k=6) under a square-burst load with host and link churn,
// flows injected at the destination's own edge.
type simSpec struct {
	Seed      int64
	Load      time.Duration // vclock:wire -- virtual time the driver injects flows, sent to the worker
	Drain     time.Duration // vclock:wire -- virtual time run past the load, sent to the worker
	BaseRate  float64
	PeakRate  float64
	Period    time.Duration // vclock:wire -- square-burst period in virtual time, sent to the worker
	Duty      float64
	JoinEvery time.Duration // vclock:wire -- virtual host-join period, sent to the worker
	FlapEvery time.Duration // vclock:wire -- virtual link-flap period, sent to the worker
	Profile   bool          // record a CPU profile of Run and attribute it to layers
	SetupOnly bool          // stop after jury.New + Boot: a setup_s sample only
}

// simOut is one repetition's measurements. The counts are deterministic
// for a seed; the timings are not.
type simOut struct {
	SetupNS int64   // jury.New + Boot, wall
	RunNS   int64   // Run, wall
	CPUNS   int64   // process CPU during Run, all threads
	PeakMB  float64 // VmHWM at exit
	Alloc   uint64  // heap bytes allocated during Run

	Decided, Valid, Faults, Timeouts int64
	// LateAlarms counts the alarms of the known false-positive class
	// (latePrimary). Faults includes them.
	LateAlarms    int64
	EngineEvents  uint64
	ValidatorMsgs int64
	StoreReplMsgs int64
	IngressDrops  uint64

	Layers map[string]float64 `json:",omitempty"` // profile shares
}

// counts is the deterministic part of a repetition, compared across
// same-seed repetitions.
func (o simOut) counts() [9]int64 {
	return [9]int64{o.Decided, o.Valid, o.Faults, o.Timeouts, o.LateAlarms, int64(o.EngineEvents),
		o.ValidatorMsgs, o.StoreReplMsgs, int64(o.IngressDrops)}
}

// add sums another repetition's deterministic counts into o.
func (o *simOut) add(x simOut) {
	o.Decided += x.Decided
	o.Valid += x.Valid
	o.Faults += x.Faults
	o.Timeouts += x.Timeouts
	o.LateAlarms += x.LateAlarms
	o.EngineEvents += x.EngineEvents
	o.ValidatorMsgs += x.ValidatorMsgs
	o.StoreReplMsgs += x.StoreReplMsgs
	o.IngressDrops += x.IngressDrops
}

// runSim executes one repetition in a fresh child process.
func runSim(spec simSpec) (simOut, error) {
	self, err := os.Executable()
	if err != nil {
		return simOut{}, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return simOut{}, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), simWorkerEnv+"="+string(js))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return simOut{}, fmt.Errorf("sim worker: %w: %s", err, stderr.String())
	}
	var out simOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return simOut{}, fmt.Errorf("sim worker output: %w", err)
	}
	return out, nil
}

// simWorker is the child side of runSim.
func simWorker(specJSON string) int {
	var spec simSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "sim worker:", err)
		return 2
	}
	out, err := simulate(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sim worker:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "sim worker:", err)
		return 1
	}
	return 0
}

func simulate(spec simSpec) (simOut, error) {
	var out simOut
	start := time.Now()
	sim, err := jury.New(jury.Config{
		Seed: spec.Seed, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true, K: 6,
	})
	if err != nil {
		return out, err
	}
	sim.Boot()
	out.SetupNS = time.Since(start).Nanoseconds()
	if spec.SetupOnly {
		return out, nil
	}

	v := sim.Validator()
	starts := watchPrimaryStarts(sim.Controllers, sim.Now)
	var alarms []core.Result
	v.OnResult = func(r core.Result) {
		out.ValidatorMsgs += int64(r.Responses)
		if r.Verdict == core.VerdictFault {
			alarms = append(alarms, r)
		}
	}
	decided0, msgs0 := v.Decided(), out.ValidatorMsgs
	valid0, faults0, timeouts0 := v.Valid(), v.Faults(), v.Timeouts()
	events0, repl0 := sim.Engine.Processed(), sim.Store.ReplicationMessages()
	var drops0 uint64
	for _, c := range sim.Controllers {
		drops0 += c.IngressDrops()
	}

	until := sim.Now() + spec.Load
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.SquareBurst(spec.BaseRate, spec.PeakRate, spec.Period, spec.Duty), until)
	sim.Driver.StartChurn(spec.JoinEvery, spec.FlapEvery, until)

	var prof bytes.Buffer
	if spec.Profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	t0 := time.Now()
	err = sim.Run(spec.Load + spec.Drain)
	out.RunNS = time.Since(t0).Nanoseconds()
	out.CPUNS = (selfCPU() - cpu0).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	if spec.Profile {
		pprof.StopCPUProfile()
	}

	if err != nil {
		return out, err
	}
	out.Alloc = ms1.TotalAlloc - ms0.TotalAlloc

	out.Decided = v.Decided() - decided0
	out.Valid = v.Valid() - valid0
	out.Faults = v.Faults() - faults0
	out.Timeouts = v.Timeouts() - timeouts0
	for _, r := range alarms {
		if latePrimary(r, starts) {
			out.LateAlarms++
		}
	}
	out.ValidatorMsgs -= msgs0
	out.EngineEvents = sim.Engine.Processed() - events0
	out.StoreReplMsgs = sim.Store.ReplicationMessages() - repl0
	for _, c := range sim.Controllers {
		out.IngressDrops += c.IngressDrops()
	}
	out.IngressDrops -= drops0
	if spec.Profile {
		if out.Layers, err = attributeProfile(prof.Bytes()); err != nil {
			return out, err
		}
	}
	if out.PeakMB, err = procHWM(os.Getpid()); err != nil {
		return out, err
	}
	return out, nil
}

// watchPrimaryStarts records, per trigger, the virtual instant its
// primary began processing it. It only observes, so the run's
// deterministic counts do not change.
func watchPrimaryStarts(ctrls []*controller.Controller, now func() time.Duration) map[trigger.ID]time.Duration {
	starts := make(map[trigger.ID]time.Duration)
	for _, c := range ctrls {
		c.OnProcessStart = func(ctx *trigger.Context) {
			if !ctx.Tainted() {
				starts[ctx.ID] = now()
			}
		}
	}
	return starts
}

// latePrimary reports whether an alarm is the known false positive
// (README, "Known false alarm"): an omission alarm on a trigger whose
// primary began processing it only after the validation deadline had
// started, so its response could not arrive in time.
func latePrimary(r core.Result, starts map[trigger.ID]time.Duration) bool {
	at, ok := starts[r.Trigger]
	return ok && r.Fault == core.FaultOmission && r.TimedOut && at >= r.DecidedAt-r.DetectionTime
}
