package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running `greenfpga serve` process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed once stdout reaches EOF
}

// startServer execs the server on an ephemeral loopback port and
// waits for the bound address on its first stdout line.
func startServer(bin, storeDir string) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0"}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	line := make(chan string, 1)
	go func() {
		defer close(p.drained)
		br := bufio.NewReader(out)
		first, _ := br.ReadString('\n')
		line <- first
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case first := <-line:
		addr, ok := strings.CutPrefix(strings.TrimSpace(first), "listening on ")
		if !ok {
			p.kill()
			return nil, fmt.Errorf("server did not report its address (first line %q)", first)
		}
		p.base = addr
		return p, nil
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server did not start within 60s")
	}
}

// stop sends SIGTERM and waits for a clean exit; a server still
// draining after 30s is killed.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-p.drained
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not drain within 30s")
	}
}

// kill ends the process without draining and reaps it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.drained
	_ = p.cmd.Wait()
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux platform Go supports).
const clockTick = 100

// cpuTime reads the process's user+system CPU time.
func (p *serverProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// runDir is one run's scratch directory under the checkout's
// .bench_build: store copies live here and it is removed when the run
// ends, so no run sees another's durable state.
type runDir struct{ path string }

// newRunDir creates a fresh, empty run directory under root.
func newRunDir(root string) (*runDir, error) {
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &runDir{path: dir}, nil
}

// sub returns a fresh subdirectory name inside the run directory.
func (d *runDir) sub(name string) string { return filepath.Join(d.path, name) }

// remove deletes the run directory and everything in it.
func (d *runDir) remove() error { return os.RemoveAll(d.path) }

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
