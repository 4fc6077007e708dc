package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dispersald child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

// startServer execs the binary with flags plus a free loopback address.
func startServer(bin string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(append([]string{}, flags...), "-addr", addr)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// If servebench dies without stopping the server, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("dispersald exited during boot: %v", s.err)
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("dispersald did not become healthy")
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the process's VmHWM from /proc.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stealSeconds reads the machine's total steal time from /proc/stat: CPU
// time the hypervisor gave to other guests while this one wanted it. It is
// printed beside the metrics because it moves them; 0 when unreadable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}

// statsz is the part of /statsz the per-layer metrics read.
type statsz struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Shared int64 `json:"shared"`
	} `json:"cache"`
	WarmCache struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Seeded   int64 `json:"seeded"`
		Fallback int64 `json:"fallback"`
	} `json:"warm_cache"`
	Sessions struct {
		Coalesced int64 `json:"coalesced"`
		Rejected  int64 `json:"rejected"`
	} `json:"sessions"`
	Solves   int64 `json:"solves"`
	Requests struct {
		TrajectoryFrames int64 `json:"trajectory_frames"`
		TrajectoryWarmed int64 `json:"trajectory_warmed"`
	} `json:"requests"`
}

// bucket is one cumulative histogram bucket: count of samples <= le
// seconds.
type bucket struct {
	le float64
	n  float64
}

// scrape is one reading of /metricsz and /statsz.
type scrape struct {
	// hist maps "stage=decode" or "handler=analyze" to its cumulative
	// buckets, in exposition order (increasing le).
	hist  map[string][]bucket
	stats statsz
}

func (s *server) scrape() (scrape, error) {
	out := scrape{hist: map[string][]bucket{}}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(s.base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	metrics, err := get("/metricsz")
	if err != nil {
		return out, err
	}
	if err := parseHistograms(metrics, out.hist); err != nil {
		return out, err
	}
	stats, err := get("/statsz")
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(stats, &out.stats)
}

// parseHistograms reads the bucket series of the request and stage
// histogram families from a Prometheus text exposition.
func parseHistograms(text []byte, into map[string][]bucket) error {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var rest string
		var ok bool
		if rest, ok = strings.CutPrefix(line, "dispersald_stage_seconds_bucket{"); !ok {
			if rest, ok = strings.CutPrefix(line, "dispersald_request_seconds_bucket{"); !ok {
				continue
			}
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok {
			return fmt.Errorf("metricsz: malformed sample %q", line)
		}
		var series, le string
		for _, kv := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(kv, "=")
			v = strings.Trim(v, `"`)
			if k == "le" {
				le = v
			} else {
				series = k + "=" + v
			}
		}
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("metricsz: %q: %w", line, err)
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("metricsz: %q: %w", line, err)
			}
		}
		into[series] = append(into[series], bucket{le: bound, n: n})
	}
	return sc.Err()
}

// quantileMS estimates the q-quantile in ms of the samples a histogram
// gained between two scrapes, interpolating linearly inside the bucket that
// holds it; no samples read as 0 ms.
func quantileMS(before, after scrape, series string, q float64) float64 {
	a, b := after.hist[series], before.hist[series]
	if len(a) == 0 {
		return 0
	}
	delta := make([]float64, len(a))
	for i := range a {
		delta[i] = a[i].n
		if i < len(b) {
			delta[i] -= b[i].n
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	i := sort.Search(len(delta), func(i int) bool { return delta[i] >= rank })
	lo, prev := 0.0, 0.0
	if i > 0 {
		lo, prev = a[i-1].le, delta[i-1]
	}
	hi := a[i].le
	if math.IsInf(hi, 1) {
		return lo * 1e3
	}
	frac := 0.0
	if delta[i] > prev {
		frac = (rank - prev) / (delta[i] - prev)
	}
	return (lo + frac*(hi-lo)) * 1e3
}
