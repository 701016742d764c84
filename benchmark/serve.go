package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// buildServer compiles cmd/psi-serve from the checkout at root into
// workDir and returns the binary's path.
func buildServer(root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "psi-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psi-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/psi-serve in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// current is the psi-serve this process has running, if any, so that
// an interrupted benchmark does not leave it behind (see main).
var current atomic.Pointer[serverProc]

// serverProc is one running psi-serve.
type serverProc struct {
	cmd     *exec.Cmd
	exited  chan error // receives cmd.Wait's result once
	url     string
	logPath string
	// startup is exec -> first 200 from /readyz: graph generation,
	// signature build, engine build, listen.
	startup time.Duration
}

// startServer execs psi-serve on an ephemeral port with the
// benchmark's fixed serving flags — every flag not listed is at its
// default, so the sampler, /queryz fingerprinting and the access log
// are on as in production — and waits until /readyz answers 200.
func startServer(bin, dataset, workDir string) (*serverProc, error) {
	addrFile := filepath.Join(workDir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logPath := filepath.Join(workDir, "psi-serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-dataset", dataset, "-workers", "2", "-queue", "64", "-threads", "1", "-seed", "42",
		"-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = logFile
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, exited: make(chan error, 1), logPath: logPath}
	current.Store(s)
	go func() {
		s.exited <- cmd.Wait()
		current.CompareAndSwap(s, nil)
	}()
	ready := func() bool {
		if s.url == "" {
			addr, err := os.ReadFile(addrFile)
			if err != nil {
				return false
			}
			s.url = "http://" + strings.TrimSpace(string(addr))
		}
		resp, err := http.Get(s.url + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	//lint:ignore sleepsync readiness of another process can only be polled: its address file, then /readyz
	for deadline := begin.Add(120 * time.Second); !ready(); time.Sleep(time.Millisecond) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("psi-serve exited before it was ready: %v; see %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("psi-serve not ready within 120s; see %s", logPath)
		}
	}
	s.startup = time.Since(begin)
	return s, nil
}

// kill ends the server at once and reaps it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // an already-exited child is fine
	<-s.exited
}

// stop sends SIGTERM and waits for the drain. A server that does not
// exit 0 having logged "drain complete" within 40 s is an error.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("psi-serve exit: %w; see %s", err, s.logPath)
		}
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("psi-serve did not drain within 40s of SIGTERM; see %s", s.logPath)
	}
	log, err := os.ReadFile(s.logPath)
	if err != nil {
		return err
	}
	if !bytes.Contains(log, []byte(`"drain complete"`)) {
		return fmt.Errorf("psi-serve exited without completing its drain; see %s", s.logPath)
	}
	return nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds is the server's user+system CPU time so far.
func (s *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stolenTicks reads the machine's cumulative steal time (the share of
// this VM's CPU time the hypervisor gave to someone else) and total
// CPU time, in clock ticks, from the first line of /proc/stat.
func stolenTicks() (stolen, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total, nil
}

// waitForQuiet holds a run back while the hypervisor is taking this
// VM's CPUs away: it returns once less than 2% of a one-second window
// was stolen, or after 20 s. Steal arrives in episodes that slow
// everything severalfold; a run started inside one measures the
// neighbours.
func waitForQuiet() {
	for waited := 0; waited < 20; waited++ {
		s0, t0, err0 := stolenTicks()
		//lint:ignore sleepsync the sleep is the window the steal share is measured over
		time.Sleep(time.Second)
		s1, t1, err1 := stolenTicks()
		if err0 != nil || err1 != nil || t1 == t0 || (s1-s0)/(t1-t0) < 0.02 {
			return
		}
		fmt.Printf("waiting: %.0f%% of the last second's CPU time was stolen by the hypervisor\n", 100*(s1-s0)/(t1-t0))
	}
}
