package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// rssCapKB is the server's resident-set cap. A server above it is killed
// and the run fails, so a blow-up cannot exhaust the shared machine.
const rssCapKB = 2 << 20 // 2 GiB

// serverProc is one running cmd/xpathserve process.
type serverProc struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has exited and been reaped

	mu     sync.Mutex
	breach string // why the guard killed the process, if it did
}

// startServer starts xpathserve with args on a free loopback port, waits
// for its first /healthz 200 and returns the time that took. The process
// runs under the resident-set guard until stop or kill.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr, "-workers", "2")...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start xpathserve: %w", err)
	}
	go func() {
		cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	go s.guard()

	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("xpathserve exited during start-up (%s): see %s", cmd.ProcessState, logPath)
		default:
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("xpathserve not healthy after 60s: see %s", logPath)
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// guard polls the server's resident set and kills it above rssCapKB.
func (s *serverProc) guard() {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		if rss := s.status("VmRSS"); rss > rssCapKB {
			s.mu.Lock()
			s.breach = fmt.Sprintf("resident set %d MiB above the %d MiB cap", rss>>10, rssCapKB>>10)
			s.mu.Unlock()
			s.cmd.Process.Kill()
			return
		}
	}
}

func (s *serverProc) breached() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breach
}

func (s *serverProc) alive() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// status reads one kB field of /proc/<pid>/status (0 when unavailable).
func (s *serverProc) status(field string) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fs := strings.Fields(line[len(field)+1:])
		if len(fs) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fs[0], 10, 64)
		return v
	}
	return 0
}

// stop asks the server to drain and waits for it, killing it after 15s.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill ends the server at once and waits until it has been reaped.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// stats reads the counters and histograms of GET /stats.
func (s *serverProc) stats() (metrics.Snapshot, error) {
	out := metrics.Snapshot{Counters: map[string]int64{}, Histograms: map[string]metrics.HistogramSnapshot{}}
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	var body struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return out, fmt.Errorf("decode /stats: %w", err)
	}
	for name, raw := range body.Metrics {
		var n int64
		if json.Unmarshal(raw, &n) == nil {
			out.Counters[name] = n
			continue
		}
		var h metrics.HistogramSnapshot
		if json.Unmarshal(raw, &h) == nil {
			out.Histograms[name] = h
		}
	}
	return out, nil
}

// histDelta returns after − before for one histogram.
func histDelta(before, after metrics.Snapshot, name string) metrics.HistogramSnapshot {
	a, b := after.Histograms[name], before.Histograms[name]
	d := metrics.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return d
}

// histQuantile estimates a quantile of a power-of-two histogram,
// interpolating linearly inside the bucket that holds it. Bucket i ≥ 1
// holds values in [2^(i-1), 2^i); bucket 0 holds zeros.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			return lo + lo*(rank-seen)/float64(n)
		}
		seen += float64(n)
	}
	return float64(int64(1) << 62)
}

func histMean(h metrics.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
