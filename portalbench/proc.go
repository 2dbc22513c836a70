package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children is every process this benchmark started and has not yet
// reaped. killAll empties it on every exit path: normal return, error,
// panic and SIGINT/SIGTERM. A leaked server would keep its data-dir LOCK
// and its port, and the next run would wait on it forever.
var children struct {
	sync.Mutex
	set     map[*child]bool
	scratch []string // directories to remove when interrupted
}

// removeOnInterrupt registers a scratch directory that an interrupt,
// which exits without running deferred calls, must still remove.
func removeOnInterrupt(dir string) {
	children.Lock()
	children.scratch = append(children.scratch, dir)
	children.Unlock()
}

// child is one server process, started in its own process group so that
// a kill reaches anything it forked too.
type child struct {
	name string
	cmd  *exec.Cmd
	tail *tailBuffer
	done chan struct{} // closed once the process has been reaped
	err  error         // exit status; valid after done
}

// startChild starts bin with args and extra environment. Standard error
// goes to a bounded tail buffer that is printed if the child fails.
func startChild(name, bin string, env []string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, cmd: cmd, tail: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	cmd.Stdout = c.tail
	cmd.Stderr = c.tail
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if children.set == nil {
		children.set = map[*child]bool{}
	}
	children.set[c] = true
	go func() {
		c.err = cmd.Wait()
		children.Lock()
		delete(children.set, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the process is gone.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// alive returns an error carrying the stderr tail if the child has exited.
func (c *child) alive() error {
	if !c.exited() {
		return nil
	}
	return fmt.Errorf("%s exited unexpectedly (%v); last output:\n%s", c.name, c.err, c.tail.String())
}

// kill sends SIGKILL to the child's process group and waits until it is
// reaped.
func (c *child) kill() {
	if !c.exited() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-c.done
}

// stop asks the child to shut down cleanly (SIGTERM) and waits up to
// grace before killing it. It reports whether the exit was clean.
func (c *child) stop(grace time.Duration) error {
	if c.exited() {
		return c.alive()
	}
	_ = syscall.Kill(c.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-c.done:
		if c.err != nil {
			return fmt.Errorf("%s: %v; last output:\n%s", c.name, c.err, c.tail.String())
		}
		return nil
	case <-time.After(grace):
		c.kill()
		return fmt.Errorf("%s did not stop within %v", c.name, grace)
	}
}

func killAll() {
	children.Lock()
	list := make([]*child, 0, len(children.set))
	for c := range children.set {
		list = append(list, c)
	}
	children.Unlock()
	for _, c := range list {
		c.kill()
	}
}

// guardChildren kills every child on SIGINT/SIGTERM before exiting.
func guardChildren() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		killAll()
		children.Lock()
		for _, dir := range children.scratch {
			os.RemoveAll(dir)
		}
		children.Unlock()
		fmt.Fprintf(os.Stderr, "portalbench: %v: children stopped\n", s)
		os.Exit(130)
	}()
}

// waitReady polls url until it answers 200, the child exits, or timeout.
func waitReady(c *child, url string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := c.alive(); err != nil {
			return fmt.Errorf("before ready: %w", err)
		}
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready at %s within %v; last output:\n%s", c.name, url, timeout, c.tail.String())
}

// freePort returns a currently unused localhost TCP port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it and counts the Go
// runtime's gctrace lines ("gc N @...") as they stream by.
type tailBuffer struct {
	mu      sync.Mutex
	max     int
	buf     []byte
	partial []byte
	gcs     int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	t.partial = append(t.partial, p...)
	for {
		i := bytes.IndexByte(t.partial, '\n')
		if i < 0 {
			break
		}
		if bytes.HasPrefix(t.partial[:i], []byte("gc ")) {
			t.gcs++
		}
		t.partial = t.partial[i+1:]
	}
	if len(t.partial) > 4096 {
		t.partial = t.partial[:0]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func (t *tailBuffer) gcCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gcs
}

// procCPU returns the user+system CPU time a process has consumed, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					return 0, err
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuTimes returns the machine's steal and total jiffies from /proc/stat:
// steal is time the hypervisor ran someone else while this machine's
// CPUs wanted to run.
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
