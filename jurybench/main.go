// Command jurybench is the repository's end-to-end benchmark. It runs
// one workload per invocation — paced live traffic against a fresh juryd
// over loopback, or the in-process simulated pipeline — checks every
// verdict against ground truth, prints each metric by name with unit and
// sample count, and ends with one JSON result line.
//
// Usage (normally through run.sh, which builds juryd and this program):
//
//	jurybench -juryd path/to/juryd --workload live-benign --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate,
// instrumented run that reports the per-layer breakdown. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if spec := os.Getenv(simWorkerEnv); spec != "" {
		os.Exit(simWorker(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Juryd    string
	Out      string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (printed, not part of the
	// result line).
	N int `json:"-"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result, the outcome of
// every gate it checked, and diagnostic notes.
type report struct {
	result
	Gates []string // human-readable gate outcomes, failures prefixed "FAIL"
	Notes []string // per-window and per-probe diagnostics
}

func (r *report) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		r.Correct = false
		msg = "FAIL " + msg
	}
	r.Gates = append(r.Gates, msg)
}

// note records a line of diagnostics.
func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opt options) (*report, error){
	"live-benign":         func(opt options) (*report, error) { return runLive(opt, liveBenign) },
	"live-sharded-alarms": func(opt options) (*report, error) { return runLive(opt, liveShardedAlarms) },
	"sim-onos-k6":         runSimWorkload,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jurybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.Seed, "seed", 1, "workload seed")
	fs.IntVar(&opt.Seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	fs.StringVar(&opt.Juryd, "juryd", "", "path to the juryd binary under test (live workloads)")
	fs.StringVar(&opt.Out, "out", "", "directory to write the full run report into (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.Trace = trace == 1
	runner, ok := workloads[opt.Workload]
	if !ok || opt.Seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "jurybench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	env := environment()
	fmt.Fprintf(stdout, "jurybench: workload=%s seed=%d seconds=%d trace=%v num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		opt.Workload, opt.Seed, opt.Seconds, opt.Trace, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)
	rep, err := runner(opt)
	if err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	for _, g := range rep.Gates {
		fmt.Fprintln(stdout, "gate:", g)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "jurybench: metric %s is not a number\n", name)
			return 1
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "metric: %-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	if opt.Out != "" {
		if err := writeReport(opt, env, rep); err != nil {
			fmt.Fprintln(stderr, "jurybench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// env records the machine and build a run measured.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment() env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit reads the checked-out commit from .git in the working
// directory, or "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// writeReport saves the run's full record: environment, options, gates
// and every metric with its sample count.
func writeReport(opt options, e env, rep *report) error {
	type row struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	rows := make(map[string]row, len(rep.Metrics))
	for name, m := range rep.Metrics {
		rows[name] = row{m.Value, m.Unit, m.N}
	}
	doc := struct {
		Env       env            `json:"env"`
		Workload  string         `json:"workload"`
		Seed      int64          `json:"seed"`
		Seconds   int            `json:"seconds"`
		Trace     bool           `json:"trace"`
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Gates     []string       `json:"gates"`
		Notes     []string       `json:"notes"`
		Metrics   map[string]row `json:"metrics"`
	}{e, opt.Workload, opt.Seed, opt.Seconds, opt.Trace, rep.Correct, rep.Attempted, rep.Failed, rep.Gates, rep.Notes, rows}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.Out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opt.Workload, opt.Seed, map[bool]int{false: 0, true: 1}[opt.Trace])
	return os.WriteFile(filepath.Join(opt.Out, name), append(b, '\n'), 0o644)
}
