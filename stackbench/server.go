package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// server is one qservd process listening on a loopback port.
type server struct {
	addr   string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	once   sync.Once
}

// pollEvery is how often startServer tries to connect to a starting
// qservd. A refused loopback connect costs a few microseconds of CPU, so
// the poll takes a few percent of one CPU away from the boot it times.
const pollEvery = 250 * time.Microsecond

// startServer launches qservd and returns once it answers /healthz, with
// the time from launch to that first healthy answer. It waits for the
// listening socket with bare TCP connects and sends the one /healthz
// request once a connect succeeds.
func startServer(bin string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-log-level", "warn", "-target", deviceFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start qservd: %w", err)
	}
	s := &server{addr: addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	for {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			break
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("qservd not listening on %s after 30s", addr)
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("qservd exited during start-up: %v", s.err)
		case <-time.After(pollEvery):
		}
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get("http://" + addr + "/healthz")
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("qservd /healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, 0, fmt.Errorf("qservd /healthz: status %d", resp.StatusCode)
	}
	return s, time.Since(start), nil
}

// stop asks qservd to drain and exit, killing it if it has not exited
// after 15s, and waits for the process to end. A SIGTERM that lands
// before qservd has installed its handler ends it directly, which is a
// clean stop too.
func (s *server) stop() error {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	return s.err
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// device is the realistic-stack backend qservd serves from deviceFile: a
// 7-qubit transmon patch with the superconducting preset's gate set and
// an all-zero calibration table. The table makes qservd run it through
// the micro-architecture like any calibrated device, while the zero
// error rates keep every outcome exact.
const (
	device     = "transmon7"
	deviceFile = "stackbench/transmon7.json"
)
