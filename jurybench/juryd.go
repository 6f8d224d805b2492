package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// daemon is one juryd process under test.
type daemon struct {
	cmd         *exec.Cmd
	started     time.Time
	addr        string
	metricsAddr string
	// logDone closes once the stderr reader has seen EOF.
	logDone chan struct{}
}

// daemonArgs are the juryd flags of one live workload.
type daemonArgs struct {
	Shards  int
	K       int
	Members int
	Timeout time.Duration
}

func (a daemonArgs) flags() []string {
	return []string{
		"-listen", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-codec", "binary",
		"-shards", strconv.Itoa(a.Shards),
		"-k", strconv.Itoa(a.K),
		"-members", strconv.Itoa(a.Members),
		"-timeout", a.Timeout.String(),
		"-stats-every", "0",
	}
}

// startDaemon launches a fresh juryd and returns once it has logged its
// service and /metrics addresses. The child is killed if this process
// dies.
func startDaemon(bin string, args daemonArgs) (*daemon, error) {
	cmd := exec.Command(bin, args.flags()...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start juryd: %w", err)
	}
	d := &daemon{cmd: cmd, started: start, logDone: make(chan struct{})}
	lines := make(chan string, 4) // the two address lines, never more than a few ahead
	var tail tailBuffer
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			tail.add(line)
			if strings.Contains(line, "juryd: validating on ") || strings.Contains(line, "juryd: metrics on ") {
				select {
				case lines <- line:
				default:
				}
			}
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for d.addr == "" || d.metricsAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				d.kill()
				return nil, fmt.Errorf("juryd exited before listening: %s", tail.String())
			}
			if i := strings.Index(line, "validating on "); i >= 0 {
				d.addr = strings.Fields(line[i+len("validating on "):])[0]
			}
			if i := strings.Index(line, "metrics on http://"); i >= 0 {
				d.metricsAddr = strings.TrimSuffix(line[i+len("metrics on http://"):], "/metrics")
			}
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("juryd did not come up within 30s: %s", tail.String())
		}
	}
	return d, nil
}

// stop sends juryd SIGTERM (its graceful shutdown path) and waits for
// it, killing it if it does not exit in time. SIGTERM rather than SIGINT:
// a shell starts background jobs with SIGINT ignored, and a juryd that
// inherits that and is stopped before it installs its handler would
// ignore SIGINT for good. A juryd stopped that early dies of the SIGTERM
// itself; that is a clean stop too.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { <-d.logDone; done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("juryd ignored SIGTERM for 10s; killed")
	}
}

// kill ends juryd immediately and reaps it (error paths).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}

// cpu returns juryd's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// peakRSSMB returns juryd's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return procHWM(d.cmd.Process.Pid)
}

// procCPU reads utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM reads VmHWM (peak resident set) of a process, in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches juryd's /metrics page and sums each family over its
// label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body)), nil
}

// parseExposition sums Prometheus text-format samples per metric name.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// tailBuffer keeps the last lines of a child's stderr for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
