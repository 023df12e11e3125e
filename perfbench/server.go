package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// server is one iokserve process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// startServer execs bin with args plus a loopback listen address and
// returns once the server has printed its LISTENING line, which it does
// only after recovery: the call's duration is the server's start-up time.
func startServer(bin, logPath string, args ...string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	// A benchmark killed mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok && !sent {
				addrc <- a
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("server exited before listening (see %s)", logPath)
		}
		s.addr = "http://" + a
		return s, nil
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server not listening after 120s (see %s)", logPath)
	}
}

// kill sends SIGKILL and waits until the process is reaped: no shutdown
// path runs, so the data directory is left exactly as a crash leaves it.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuSeconds is the server's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// rssMB is the server's resident set (VmRSS) in MiB.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmRSS")
	return float64(kb) / 1024, err
}

// rssEvery is how often the resident set is sampled during the timed
// phase.
const rssEvery = 25 * time.Millisecond

// sampleRSS reads the server's resident set every rssEvery until the
// returned function is called, which returns the samples and the first
// read error.
func (s *server) sampleRSS() func() ([]float64, error) {
	var xs []float64
	var rerr error
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				mb, err := s.rssMB()
				if err != nil {
					rerr = err
					return
				}
				xs = append(xs, mb)
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		<-done
		return xs, rerr
	}
}

// hostSteal reads the machine's steal and total CPU jiffies.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseCPUSteal(string(b))
}

// clock times a phase in wall time and also reads the share of the
// machine's CPU time the hypervisor stole meanwhile. The steal share is a
// diagnostic printed on standard error, never applied to a metric: on a
// shared virtual machine it comes and goes with other tenants' load and
// explains a slow run; on a dedicated host it is 0.
type clock struct {
	start          time.Time
	steal0, total0 uint64
}

func startClock() (clock, error) {
	s, t, err := hostSteal()
	return clock{time.Now(), s, t}, err
}

// stop returns the wall time since start and the share of CPU time
// stolen meanwhile.
func (c clock) stop() (time.Duration, float64, error) {
	wall := time.Since(c.start)
	s, t, err := hostSteal()
	if err != nil || t <= c.total0 {
		return wall, 0, err
	}
	return wall, float64(s-c.steal0) / float64(t-c.total0), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, fi.Mode().Perm())
	})
}
