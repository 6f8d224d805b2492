package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// juryd is the daemon binary the live smoke tests run, built once.
var juryd string

func TestMain(m *testing.M) {
	if spec := os.Getenv(simWorkerEnv); spec != "" {
		os.Exit(simWorker(spec))
	}
	dir, err := os.MkdirTemp("", "jurybench-test")
	if err != nil {
		panic(err)
	}
	juryd = filepath.Join(dir, "juryd")
	build := exec.Command("go", "build", "-o", juryd, "github.com/jurysdn/jury/cmd/juryd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build juryd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmokeWorkloads runs every workload at smoke size in both modes and
// checks the result line's schema against BENCHMARK.json and that every
// correctness gate passed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start juryd and simulations")
	}
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(sorted(names), ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-juryd", juryd, "--workload", w, "--seed", "7", "--seconds", "2", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				for _, l := range lines {
					if strings.HasPrefix(l, "gate: FAIL") {
						t.Error(l)
					}
				}
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if keys := sortedKeys(raw); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %v", keys)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				list := c.EndToEnd
				if trace == "1" {
					list = c.PerLayer
				}
				for _, m := range list {
					want[m.Name] = m.Unit
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for name, m := range res.Metrics {
					if unit, ok := want[name]; !ok || unit != m.Unit {
						t.Errorf("metric %s [%s] not in BENCHMARK.json (want unit %q)", name, m.Unit, unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestSeedArgument pins that the seed alone fixes the generated inputs.
func TestSeedArgument(t *testing.T) {
	fab, err := newFabric(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := liveShardedAlarms.Stream
	spec.Rate, spec.Window = 4000, 300*time.Millisecond
	digest := func(seed int64) (uint64, int64, int64) {
		s := spec
		s.RootSeed = seed
		_, m, err := collect(natural(s, s.Rate, s.Window), fab)
		if err != nil {
			t.Fatal(err)
		}
		return m.Digest(), m.Envelopes, m.Dropped
	}
	d1, e1, x1 := digest(1)
	d1b, e1b, x1b := digest(1)
	d2, _, _ := digest(2)
	if d1 != d1b || e1 != e1b || x1 != x1b {
		t.Fatalf("same seed, different streams: %x/%d/%d vs %x/%d/%d", d1, e1, x1, d1b, e1b, x1b)
	}
	if d1 == d2 {
		t.Fatalf("seeds 1 and 2 generated the same stream %x", d1)
	}
	if x1 == 0 {
		t.Fatalf("drop rate 1%% dropped no primaries in %d envelopes", e1)
	}
}

// TestMappingGate proves the benchmark's event→response mapping against
// loadgen.RunCampaign for both live configurations, and that the
// comparison notices a stream that differs.
func TestMappingGate(t *testing.T) {
	fab, err := newFabric(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []liveSpec{liveBenign, liveShardedAlarms} {
		s := w.Stream
		s.Rate, s.Window, s.RootSeed = 3000, 150*time.Millisecond, 11
		if err := checkMapping(fab, s, w.Daemon.Shards, liveTimeout); err != nil {
			t.Error(err)
		}
	}
	s := liveShardedAlarms.Stream
	s.Rate, s.Window, s.RootSeed = 3000, 150*time.Millisecond, 11
	want, seed, err := campaignPoint(s, 2, liveTimeout)
	if err != nil {
		t.Fatal(err)
	}
	s.RootSeed = 12
	got, err := replayPoint(fab, s, 2, liveTimeout, seed)
	if err != nil {
		t.Fatal(err)
	}
	if samePoint(got, want) {
		t.Errorf("replay of seed 12 matched the campaign of seed 11: %+v", got)
	}
}

func TestTriggerIDRoundTrip(t *testing.T) {
	var buf [17]byte
	for _, n := range []int64{1, 15, 16, 1 << 40} {
		got, ok := triggerNum(triggerID(buf[:], n))
		if !ok || got != n {
			t.Errorf("triggerNum(triggerID(%d)) = %d, %v", n, got, ok)
		}
	}
	if _, ok := triggerNum("w-12"); ok {
		t.Error("foreign trigger ID parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/jurysdn/jury/internal/core.(*Validator).Submit":       "core",
		"github.com/jurysdn/jury/internal/core.normalizeValue":            "core",
		"github.com/jurysdn/jury/internal/controller.DecodeFlowRule":      "",
		"github.com/jurysdn/jury/internal/controller.(*Controller).Start": "controller",
		"github.com/jurysdn/jury/internal/store.(*Cluster).replicate":     "store",
		"github.com/jurysdn/jury/internal/simnet.(*Engine).Run":           "simnet",
		"github.com/jurysdn/jury/internal/workload.(*Driver).Start":       "other",
		"runtime.mallocgc":                    "",
		"encoding/json.(*decodeState).object": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q1 = %v", got)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-onos-k6", "--trace", "2"},
		{"--workload", "sim-onos-k6", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestGradeDuplicateVerdict checks that a second verdict for a trigger
// is an error even when the first one was right.
func TestGradeDuplicateVerdict(t *testing.T) {
	t0 := time.Now()
	truths := []truth{{due: time.Millisecond}, {due: 2 * time.Millisecond}}
	at := t0.Add(5 * time.Millisecond)
	var p probe
	p.grade(t0, truths, []verdict{
		{n: 1, at: at, valid: true},
		{n: 2, at: at, valid: true},
		{n: 1, at: at, omit: true}, // a late alarm for a decided trigger
	})
	if p.Errors != 1 || p.Duplicates != 1 || len(p.Benign) != 2 {
		t.Errorf("errors %d duplicates %d benign %d, want 1 1 2", p.Errors, p.Duplicates, len(p.Benign))
	}
}

// TestSimKnownFalseAlarm pins the known false positive (README, "Known
// false alarm") on a sub-seed that raises it: every alarm of the benign
// simulation is on a trigger its primary processed only after the alarm.
func TestSimKnownFalseAlarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full sim-onos-k6 repetition")
	}
	o, err := simulate(simSpecFor(subSeed(110, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if o.Faults == 0 || o.Faults != o.LateAlarms {
		t.Errorf("alarms %d, on a late primary %d; want a nonzero count, all on a late primary", o.Faults, o.LateAlarms)
	}
}
