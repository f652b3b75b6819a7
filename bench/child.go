package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves outside its own memory: the
// work directory and the filterd children. cleanup kills and reaps
// every child still alive and removes the directory; main calls it on
// every exit path, SIGINT and SIGTERM included.
type sandbox struct {
	dir      string
	mu       sync.Mutex
	children map[*child]bool
}

func newSandbox(parent string) (*sandbox, error) {
	parent, err := filepath.Abs(parent)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "work-")
	if err != nil {
		return nil, err
	}
	return &sandbox{dir: dir, children: map[*child]bool{}}, nil
}

func (s *sandbox) cleanup() {
	s.mu.Lock()
	live := make([]*child, 0, len(s.children))
	for c := range s.children {
		live = append(live, c)
	}
	s.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	os.RemoveAll(s.dir)
}

// child is one running `filterd serve`.
type child struct {
	sb   *sandbox
	cmd  *exec.Cmd
	addr string
	out  bytes.Buffer
	done chan struct{} // closed once the process has been reaped
}

// buildFilterd compiles ./cmd/filterd from the checkout at root.
func buildFilterd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/filterd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/filterd: %v\n%s", err, msg)
	}
	return nil
}

// runFilterd runs a filterd verb to completion (`filterd build`).
func runFilterd(bin string, args ...string) error {
	if msg, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		return fmt.Errorf("filterd %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return nil
}

// serve starts `filterd serve` on an ephemeral loopback port with the
// given extra flags and returns once the port file names the address.
func (s *sandbox) serve(bin string, args ...string) (*child, error) {
	portfile := filepath.Join(s.dir, fmt.Sprintf("port-%d", time.Now().UnixNano()))
	c := &child{sb: s, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0", "-portfile", portfile}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.children[c] = true
	s.mu.Unlock()
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(portfile); err == nil && len(raw) > 0 {
			c.addr = string(raw)
			os.Remove(portfile)
			return c, nil
		}
		select {
		case <-c.done:
			c.forget()
			return nil, fmt.Errorf("filterd serve exited before listening:\n%s", c.out.String())
		case <-time.After(time.Millisecond):
		}
	}
	c.kill()
	return nil, fmt.Errorf("filterd serve did not listen within 60s:\n%s", c.out.String())
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) forget() {
	c.sb.mu.Lock()
	delete(c.sb.children, c)
	c.sb.mu.Unlock()
}

// kill sends SIGKILL and waits until the process is gone.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
	c.forget()
}

// stop asks for a clean shutdown (drain, flush, close the store) and
// falls back to SIGKILL if the child does not exit in time.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		c.forget()
		if !c.cmd.ProcessState.Success() {
			return fmt.Errorf("filterd serve exited uncleanly (%v):\n%s", c.cmd.ProcessState, c.out.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		c.kill()
		return fmt.Errorf("filterd serve ignored SIGTERM for 30s")
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsName names the filesystem holding dir, for the meta block: fsync
// time is that filesystem's, and is part of what kv_write measures.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
