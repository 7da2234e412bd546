//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// buildServer compiles cmd/cbnet-serve from the tree at root into the
// benchmark's cache directory. The go tool's own cache makes a rebuild of an
// unchanged tree cheap, so every run builds and no run serves a stale binary.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, "benchmark", ".cache", "bin", "cbnet-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cbnet-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cbnet-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// tail keeps the last lines a process wrote, for the failure report.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 64<<10 {
		t.buf = t.buf[len(t.buf)-(32<<10):]
	}
	return len(p), nil
}

func (t *tail) lastLines(n int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	lines := strings.Split(strings.TrimRight(string(t.buf), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// server is one running cbnet-serve subprocess in its own process group.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr *tail
	exited chan struct{} // closed once Wait has returned
}

// The servers currently running, so a signal or a failure on any path can
// stop them all.
var (
	liveMu sync.Mutex
	live   = map[*server]struct{}{}
)

func stopAllServers() {
	liveMu.Lock()
	all := make([]*server, 0, len(live))
	for s := range live {
		all = append(all, s)
	}
	liveMu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// startServer execs the built binary with cbnet-serve's default flags on a
// free loopback port and returns once /readyz answers 200. A port lost to
// another process between probing and binding is retried.
func startServer(bin, ckpt string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := startServerOn(bin, ckpt, port)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probing for a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServerOn(bin, ckpt string, port int) (*server, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:    exec.Command(bin, "-ckpt", ckpt, "-dataset", "fmnist", "-device", "RaspberryPi4", "-addr", addr),
		url:    "http://" + addr,
		stderr: &tail{},
		exited: make(chan struct{}),
	}
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cbnet-serve: %w", err)
	}
	liveMu.Lock()
	live[s] = struct{}{}
	liveMu.Unlock()
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we kill carries no news
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("cbnet-serve exited before it was ready; last stderr:\n%s", s.stderr.lastLines(20))
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cbnet-serve not ready on %s within 10s; last stderr:\n%s", addr, s.stderr.lastLines(20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the server's whole process group and waits for it: SIGTERM for
// the graceful path, SIGKILL if that takes more than two seconds.
func (s *server) stop() {
	liveMu.Lock()
	_, running := live[s]
	delete(live, s)
	liveMu.Unlock()
	if !running {
		<-s.exited
		return
	}
	pgid := -s.cmd.Process.Pid
	_ = syscall.Kill(pgid, syscall.SIGTERM) // ESRCH when it already exited
	select {
	case <-s.exited:
	case <-time.After(2 * time.Second):
		_ = syscall.Kill(pgid, syscall.SIGKILL)
		<-s.exited
	}
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux reports
// USER_HZ = 100 on every architecture this repo ships kernels for.
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU seconds (user + system) a process has used so far,
// from /proc/<pid>/stat: 10 ms ticks, a quarter of a percent of what a server
// uses in one slice of a run.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name sits in parentheses and may hold spaces; the numeric
	// fields follow the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return (time.Duration(ut+st) * clockTick).Seconds(), nil
}

// selfCPU is procCPU for this process at microsecond resolution.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	us := (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
	return float64(us) / 1e6, nil
}

// peakRSSMB returns a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// classifyReply is the part of serve.ClassifyResponse the benchmark reads.
type classifyReply struct {
	Class            int     `json:"class"`
	Route            string  `json:"route"`
	BatchSize        int     `json:"batchSize"`
	WallLatencyMS    float64 `json:"wallLatencyMs"`
	EnergyEstimateMJ float64 `json:"energyEstimateMj"`
	QueueWaitMS      float64 `json:"queueWaitMs"`
}

// conn is one keep-alive HTTP connection to the server: a client whose
// transport may hold a single connection, used by a single goroutine.
type conn struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: base + "/classify",
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// classify posts one body and decodes the reply. A non-200 status is
// returned with a zero reply and no error; err is a transport failure.
func (c *conn) classify(body []byte, contentType string) (classifyReply, int, error) {
	var reply classifyReply
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.client.Do(req)
	if err != nil {
		return reply, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, resp.StatusCode, nil
	}
	if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
		return reply, resp.StatusCode, fmt.Errorf("decoding classify reply: %w", err)
	}
	return reply, resp.StatusCode, nil
}

// engineCounts is the part of the engine's /stats snapshot the benchmark
// reads, over HTTP or from Engine.Stats in-process.
type engineCounts struct {
	Rejected        int64         `json:"rejected"`
	DeadlineExpired int64         `json:"deadlineExpired"`
	InferFailed     int64         `json:"inferFailed"`
	Routes          []routeCounts `json:"routes"`
}

type routeCounts struct {
	Images  int64 `json:"images"`
	Batches int64 `json:"batches"`
}

func (e engineCounts) imagesAndBatches() (images, batches int64) {
	for _, r := range e.Routes {
		images += r.Images
		batches += r.Batches
	}
	return images, batches
}

func fetchStats(base string) (engineCounts, error) {
	var st engineCounts
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer http.DefaultClient.CloseIdleConnections()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}
