package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the repository from the working directory, which is
// bench/ under `go run -C bench .` and the root otherwise.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("bench: cmd/serve not found; run from the repository root or from bench/")
}

// buildBinaries builds the programs under test into bench/out/bin. The
// go tool's cache makes every build after the first a no-op.
func buildBinaries(root string) (binDir string, err error) {
	binDir = filepath.Join(root, "bench", "out", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/serve", "./cmd/embshard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building cmd/serve and cmd/embshard: %v\n%s", err, out)
	}
	return binDir, nil
}

// freeAddr returns a loopback address nothing listens on right now;
// other serve processes may hold the default ports on a shared host.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// tailBuffer keeps the last few KiB written to it: a dead child's
// stderr tail goes into the error that fails the run.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one process under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr tailBuffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// children registers every live child so that any way out of the
// program — return, signal, panic — can kill what is left.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	// The kernel kills the child should this process die without
	// running killChildren (SIGKILL, OOM).
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// killChildren kills every live child and waits for each to end.
func killChildren() {
	children.mu.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill() // already gone is fine
	}
	for _, c := range live {
		<-c.done
	}
}

// died reports a child that has exited, with its stderr tail.
func (c *child) died() error {
	select {
	case <-c.done:
		return fmt.Errorf("bench: %s exited early (%v); stderr tail:\n%s", c.name, c.err, c.stderr.String())
	default:
		return nil
	}
}

// awaitReady polls probe every millisecond until it succeeds, failing
// if the child dies first or a minute passes.
func (c *child) awaitReady(probe func() bool) error {
	deadline := time.Now().Add(time.Minute)
	for !probe() {
		if err := c.died(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not ready after a minute; stderr tail:\n%s", c.name, c.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func httpProbe(url string) func() bool {
	return func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

func tcpProbe(addr string) func() bool {
	return func() bool {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		conn.Close()
		return true
	}
}

// stop sends SIGINT and requires a clean exit. serve installs its
// SIGINT handler a moment after it starts listening, so a child stopped
// the instant it is healthy can die of the signal itself; early says
// that this stop is such a one, and lets that pass.
func (c *child) stop(early bool) error {
	if err := c.died(); err != nil {
		return err
	}
	if err := c.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return fmt.Errorf("bench: signalling %s: %w", c.name, err)
	}
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill() // racing its own exit is fine
		<-c.done
		return fmt.Errorf("bench: %s ignored SIGINT for 15 s; stderr tail:\n%s", c.name, c.stderr.String())
	}
	if c.err != nil && !(early && c.interrupted()) {
		return fmt.Errorf("bench: %s did not exit cleanly (%v); stderr tail:\n%s", c.name, c.err, c.stderr.String())
	}
	return nil
}

// interrupted reports whether SIGINT ended the child, not its handler.
func (c *child) interrupted() bool {
	var exit *exec.ExitError
	if !errors.As(c.err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGINT
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat, fixed at
// 100 for user space on every Linux architecture.
const userHZ = 100

// procCPU returns the user+system CPU time a process has used: to the
// nanosecond from its threads' schedstat where the kernel keeps it, to
// the 10 ms tick from /proc/<pid>/stat otherwise.
func procCPU(pid int) (time.Duration, error) {
	if tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); len(tasks) > 0 {
		var ns int64
		for _, t := range tasks {
			b, err := os.ReadFile(t)
			if err != nil {
				continue // the thread ended between the glob and the read
			}
			if f := strings.Fields(string(b)); len(f) > 0 {
				n, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				ns += n
			}
		}
		return time.Duration(ns), nil
	}
	f, err := statFields(pid)
	if err != nil {
		return 0, err
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// statFields returns the fields of /proc/<pid>/stat that follow the
// command name, which may itself hold spaces: f[0] is the state,
// f[7] minflt, f[11] utime, f[12] stime.
func statFields(pid int) ([]string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return nil, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	return f, nil
}

// minorFaults is the number of page faults the child has taken that
// needed no I/O: first touches of fresh memory.
func minorFaults(c *child) (int64, error) {
	f, err := statFields(c.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(f[7], 10, 64)
}

// cpuTime sums the CPU time the children have used.
func cpuTime(cs []*child) (time.Duration, error) {
	var total time.Duration
	for _, c := range cs {
		cpu, err := procCPU(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

// statusField sums one numeric field over the /proc status files that
// pattern matches: /proc/<pid>/status for a figure of the process,
// /proc/<pid>/task/*/status for one the kernel keeps per thread
// (context switches).
func statusField(pattern, field string) (int64, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return 0, err
	}
	var total int64
	found := false
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, field+":"); ok {
				n, err := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
				if err != nil {
					return 0, err
				}
				total += n
				found = true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("bench: no %s in %s", field, pattern)
	}
	return total, nil
}

// procSample is what the benchmark reads from the kernel about a set
// of processes at one instant.
type procSample struct {
	cpu   time.Duration
	ctxsw int64
}

func sampleProcs(cs []*child) (procSample, error) {
	var s procSample
	var err error
	if s.cpu, err = cpuTime(cs); err != nil {
		return s, err
	}
	for _, c := range cs {
		for _, f := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			n, err := statusField(fmt.Sprintf("/proc/%d/task/*/status", c.cmd.Process.Pid), f)
			if err != nil {
				return s, err
			}
			s.ctxsw += n
		}
	}
	return s, nil
}

// peakRSSMB sums the processes' high-water resident set sizes.
func peakRSSMB(cs []*child) (float64, error) {
	var kb int64
	for _, c := range cs {
		n, err := statusField(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid), "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}

// selfCPU returns the CPU time this process (the load generator) has
// used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
