package main

import (
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

// bootProbe is the read whose first 200 ends a boot measurement: a
// compiled-batch prediction every workload's daemon answers.
const bootProbe = "/v1/predict?model=resnet-50&config=1xP3"

// Timeouts that keep a wedged child from outliving the run.
const (
	bootTimeout  = 60 * time.Second
	stopTimeout  = 30 * time.Second
	trainTimeout = 120 * time.Second
)

// procStats is what the kernel reports about a finished child.
type procStats struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	MaxRSS int64         // bytes
}

func statsOf(cmd *exec.Cmd, wall time.Duration) procStats {
	ps := cmd.ProcessState
	st := procStats{Wall: wall, CPU: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.MaxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return st
}

// runTrain runs `ceer train -out out -seed seed -obs-log obsLog` to
// completion and returns its wall time and rusage.
func runTrain(bin, out, obsLog string, seed uint64) (procStats, error) {
	cmd := command(bin, "train", "-out", out, "-seed", fmt.Sprint(seed), "-obs-log", obsLog)
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return procStats{}, fmt.Errorf("ceer train: %w", err)
	}
	timer := time.AfterFunc(trainTimeout, func() { _ = cmd.Process.Kill() }) // the Wait error reports the kill
	err := cmd.Wait()
	wall := time.Since(t0)
	timer.Stop()
	if err != nil {
		return procStats{}, fmt.Errorf("ceer train: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return statsOf(cmd, wall), nil
}

// daemon is a running `ceer serve` child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	stdout logWriter
	// exited yields the Wait result once the child has exited.
	exited chan error
	// bootCPU is the child's user+system CPU time from exec to its
	// first 200, in clock ticks' resolution.
	bootCPU time.Duration
}

// logWriter collects the child's stdout (exec copies into it from its
// own goroutine, and Wait waits for that copy) and hands the address of
// the first "listening on ADDR" line to addr.
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered, capacity 1; sent to at most once
	sent bool
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if a, _, ok := strings.Cut(rest, " "); ok {
				w.addr <- a
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// requestTimeout bounds one request, so a wedged daemon fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// newClient returns a loopback client holding one idle keep-alive
// connection, with no proxy and no compression.
func newClient() *http.Client {
	return &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// command is exec.Command for a child that the kernel kills if the
// benchmark dies first, so no daemon outlives the run.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startDaemon execs `ceer serve -addr 127.0.0.1:0 args...`, waits for
// its listening line, and sends bootProbe; the returned duration runs
// from exec to that first 200.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	d := &daemon{client: newClient()}
	d.stdout.addr = make(chan string, 1)
	d.cmd = command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = &d.stderr
	exited := make(chan error, 1)
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("ceer serve: %w", err)
	}
	go func() { exited <- d.cmd.Wait() }()
	d.exited = exited
	select {
	case a := <-d.stdout.addr:
		d.base = "http://" + a
	case err := <-exited:
		return nil, 0, fmt.Errorf("ceer serve exited before listening (%v): %s", err, strings.TrimSpace(d.stderr.String()))
	case <-time.After(bootTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("ceer serve: no listening line within %s", bootTimeout)
	}
	resp, err := d.client.Get(d.base + bootProbe)
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("boot probe: %w", err)
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // fully read; a close error cannot change the status
	took := time.Since(t0)
	if cerr != nil || resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, 0, fmt.Errorf("boot probe: status %d (%v)", resp.StatusCode, cerr)
	}
	if d.bootCPU, err = procCPU(d.cmd.Process.Pid); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, took, nil
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux ABI).
const clockTick = 10 * time.Millisecond

// procCPU returns a live process's user+system CPU time so far, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// kill ends the child unconditionally and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // may already have exited
	<-d.exited
}

// stop drains the daemon with SIGTERM and requires a clean exit: status
// 0 and the "drained, bye" log line. A daemon that has not exited
// within stopTimeout is killed.
func (d *daemon) stop() (procStats, error) {
	d.client.CloseIdleConnections()
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return procStats{}, fmt.Errorf("signalling ceer serve: %w", err)
	}
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(stopTimeout):
		d.kill()
		return procStats{}, fmt.Errorf("ceer serve did not drain within %s", stopTimeout)
	}
	st := statsOf(d.cmd, time.Since(t0))
	if err != nil {
		return st, fmt.Errorf("ceer serve drain: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	if !strings.Contains(d.stdout.String(), "drained, bye") {
		return st, errors.New("ceer serve exited without draining")
	}
	return st, nil
}
