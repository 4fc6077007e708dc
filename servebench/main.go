// Command servebench is the dispersald benchmark. It boots dispersald,
// built from the same checkout, on loopback as a child process; drives one
// workload against it from this single process over at most two
// connections, first in a closed loop (throughput) and then in an open
// loop at a fixed rate (latency); scrapes the server's /metricsz and
// /statsz after each timed window; stops the server; and checks every
// answer, off the timed path, against the paper's invariants.
//
// Usage, from the root of a checkout (run.sh builds both binaries):
//
//	bash servebench/run.sh --workload trajectory-drift --seed 1 --seconds 40 --trace 0
//
// Workloads are analyze-hit, analyze-miss, trajectory-drift and
// sweep-grid; config.json pins the server flags, the connection counts and
// the rates. Human-readable lines come first on standard output. The last
// line is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1, which also replays the workload's inputs through the
// layers' public calls with a span around each call.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// config is config.json. Its check_seed is read by no code: it records
// the second seed used to check verdicts and steadiness.
type config struct {
	ServerFlags    []string            `json:"server_flags"`
	GeneratorProcs int                 `json:"generator_gomaxprocs"`
	DefaultSeed    uint64              `json:"default_seed"`
	Workloads      map[string]wlConfig `json:"workloads"`
}

// wlConfig sizes one workload. A unit is one request: an analyze call, a
// sweep, or a trajectory round. The closed phase sends
// closed_units_per_s*(1-openShare)*seconds units as fast as answers come
// back; the open phase sends open_units_per_s*openShare*seconds units at
// exactly open_units_per_s.
type wlConfig struct {
	Conns        int     `json:"conns"`
	SetupRepeats int     `json:"setup_repeats"`
	ClosedRate   float64 `json:"closed_units_per_s"`
	OpenRate     float64 `json:"open_units_per_s"`
}

// openShare is the share of --seconds the open phase gets. Halving the run
// gives both phases the same length, so a slow stretch of the host hits
// throughput and latency alike, and the open phase still collects a few
// hundred samples at rates well under capacity.
const openShare = 0.5

var generators = map[string]func(seed uint64, nClosed, nOpen int) inputs{
	"analyze-hit":      genAnalyzeHit,
	"analyze-miss":     genAnalyzeMiss,
	"trajectory-drift": genTrajectory,
	"sweep-grid":       genSweep,
}

var handlers = map[string]string{
	"analyze-hit":      "analyze",
	"analyze-miss":     "analyze",
	"trajectory-drift": "trajectory",
	"sweep-grid":       "sweep",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 0, "workload seed (0 selects the configured default)")
	seconds := flag.Int("seconds", 40, "length of the two timed windows together")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	serverBin := flag.String("server", "", "dispersald binary")
	configPath := flag.String("config", "servebench/config.json", "pinned benchmark configuration")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	data, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("%s: %w", *configPath, err)
	}
	wc, ok := cfg.Workloads[*wl]
	gen := generators[*wl]
	if !ok || gen == nil {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	if *serverBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -server, -seconds >= 1 and -trace 0 or 1")
	}
	if *seed == 0 {
		*seed = cfg.DefaultSeed
	}
	units := func(rate, share float64) int { return max(1, int(math.Round(rate*share*float64(*seconds)))) }
	in := gen(*seed, units(wc.ClosedRate, 1-openShare), units(wc.OpenRate, openShare))

	// Set-up: exec to a healthy /healthz plus the workload's pre-fill,
	// repeated; the last server stays up for the timed windows. The
	// collection first keeps the generator's garbage from being swept
	// while a set-up is timed.
	runtime.GC()
	var setups []float64
	var srv *server
	for range max(wc.SetupRepeats, 1) {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(*serverBin, cfg.ServerFlags); err != nil {
			return err
		}
		if err = srv.waitHealthy(30 * time.Second); err == nil && len(in.prefill) > 0 {
			c := newClient(srv.base, wc.Conns)
			err = prefill(c, &in, wc.Conns)
			c.close()
		}
		if err != nil {
			srv.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The pinned GOMAXPROCS holds for the timed windows only; set-up,
	// verification and the traced run use every core.
	procs := runtime.GOMAXPROCS(cfg.GeneratorProcs)
	m, err := measure(srv, *wl, &in, wc)
	runtime.GOMAXPROCS(procs)
	srv.stop()
	if err != nil {
		return err
	}
	m.setup = setups

	v := verifyRun(&in, m.ops, m.results, procs)
	report := &report{wl: *wl, seed: *seed, seconds: *seconds, wc: wc, in: &in, m: m, v: v}
	report.printE2E()
	report.printVerdict()
	report.printScrape()
	metrics := report.e2eMetrics()
	if *trace == 1 {
		spanFile := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.jsonl", *wl, *seed))
		tr, err := runTrace(*wl, &in, workers(cfg.ServerFlags), spanFile)
		if err != nil {
			return err
		}
		report.trace = &tr
		report.printTrace(spanFile)
		metrics = report.layerMetrics()
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{v.failed == 0, v.attempted, v.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measurement is what the timed windows produced.
type measurement struct {
	closed, open phase
	closedOK     int
	// rate is the closed phase's throughput over its quiet slices; rates
	// and rateSteal are each slice's rate and steal share.
	rate             float64
	rates, rateSteal []float64
	lat              []latSample
	// latPool holds the latencies of the open phase's quiet slices, in ms;
	// latSteal is each slice's steal share.
	latPool, latSteal  []float64
	lag                []float64
	stealS             float64
	before, mid, after scrape
	rssMB              float64
	setup              []float64
	ops                []opRec
	results            map[uint64][]byte
}

// measure runs the two timed windows on a set-up server, scraping it
// before, between and after them.
func measure(srv *server, wl string, in *inputs, wc wlConfig) (measurement, error) {
	var m measurement
	var err error
	c := newClient(srv.base, wc.Conns)
	defer c.close()
	recs := make([]*recorder, wc.Conns)
	for i := range recs {
		recs[i] = newRecorder()
	}
	if m.before, err = srv.scrape(); err != nil {
		return m, err
	}
	st := trackSteal()
	defer st.end()
	m.closed = runClosed(c, wl, in, recs)
	for _, r := range recs {
		r.splitSweeps()
		for _, op := range r.ops {
			if op.status == 200 {
				m.closedOK++
			}
		}
	}
	if m.mid, err = srv.scrape(); err != nil {
		return m, err
	}
	m.open = runOpen(c, wl, in, recs, wc.OpenRate)
	st.end()
	m.stealS = st.steal[len(st.steal)-1] - st.steal[0]
	if m.after, err = srv.scrape(); err != nil {
		return m, err
	}
	if m.rssMB, err = srv.peakRSSMB(); err != nil {
		return m, err
	}
	m.results = map[uint64][]byte{}
	for _, r := range recs {
		r.splitSweeps()
		m.ops = append(m.ops, r.ops...)
		m.lat = append(m.lat, r.lat...)
		m.lag = append(m.lag, r.lag...)
		for h, b := range r.results {
			m.results[h] = b
		}
	}
	m.rate, m.rates, m.rateSteal = closedRate(recs, m.closed, st)
	m.latPool, m.latSteal = openLatencies(m.lat, m.open, st, openSliceCount(wl))
	return m, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile interpolates linearly between the closest ranks; 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workers is the server's -workers flag: the traced run's Sweep and
// session scheduler use the same pool size.
func workers(flags []string) int {
	for i, f := range flags[:max(len(flags)-1, 0)] {
		if f == "-workers" {
			if n, err := strconv.Atoi(flags[i+1]); err == nil && n > 0 {
				return n
			}
		}
	}
	return runtime.NumCPU()
}
