package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opRec is one operation as the client saw it. status is the HTTP status,
// or 0 when the operation got no usable answer (a transport error, a stream
// that ended before the frame, or a 200 without a result).
type opRec struct {
	idx, spec int32
	status    int32
	hash      uint64
}

// recorder collects one worker's observations; workers never share one, so
// the timed path takes no locks.
type recorder struct {
	ops []opRec
	// lat holds the open-loop latency samples; lag how late the generator
	// sent each open-loop unit, in ms.
	lat []latSample
	lag []float64
	// results holds the first copy of every distinct result body, by hash.
	results map[uint64][]byte
	// t0 is the closed phase's start while it runs (zero otherwise); done
	// holds the offsets from t0 at which its operations were answered.
	t0   time.Time
	done []time.Duration
	// sweeps holds raw sweep responses, split into items after the run.
	sweeps []sweepRaw
	buf    bytes.Buffer
}

// latSample is one open-loop latency: when the answer arrived, and how
// long it took in ms.
type latSample struct {
	at time.Time
	ms float64
}

type sweepRaw struct {
	u      unit
	status int32
	body   []byte
}

func newRecorder() *recorder { return &recorder{results: map[uint64][]byte{}} }

// result records one answered operation; res is the bytes of its "result"
// object.
func (r *recorder) result(idx, spec int32, status int, res []byte) {
	if res == nil {
		r.missing(idx, spec, 0)
		return
	}
	h := fnv.New64a()
	_, _ = h.Write(res)
	sum := h.Sum64()
	if _, ok := r.results[sum]; !ok {
		r.results[sum] = bytes.Clone(res)
	}
	r.ops = append(r.ops, opRec{idx: idx, spec: spec, status: int32(status), hash: sum})
}

// answered marks n closed-phase operations answered now.
func (r *recorder) answered(n int) {
	if r.t0.IsZero() {
		return
	}
	d := time.Since(r.t0)
	for range n {
		r.done = append(r.done, d)
	}
}

func (r *recorder) missing(idx, spec int32, status int) {
	r.ops = append(r.ops, opRec{idx: idx, spec: spec, status: int32(status)})
}

var resultKey = []byte(`"result":`)

// resultBytes returns the "result" object of an analyze answer or a
// trajectory line: the server writes it as the last field.
func resultBytes(b []byte) []byte {
	i := bytes.Index(b, resultKey)
	j := bytes.LastIndexByte(b, '}')
	if i < 0 || j <= i+len(resultKey) {
		return nil
	}
	return b[i+len(resultKey) : j]
}

// client is the load generator's HTTP side: at most conns connections to
// one server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(path string, body []byte, clientKey string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if clientKey != "" {
		req.Header.Set("X-Client-Key", clientKey)
	}
	return c.hc.Do(req)
}

// analyze sends one /v1/analyze unit and records its operation.
func (c *client) analyze(rec *recorder, u unit) {
	resp, err := c.post("/v1/analyze", u.body, "")
	if err != nil {
		rec.missing(u.first, u.specs[0], 0)
		return
	}
	rec.buf.Reset()
	_, err = rec.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.missing(u.first, u.specs[0], statusOr0(resp.StatusCode, err))
		return
	}
	rec.answered(1)
	rec.result(u.first, u.specs[0], resp.StatusCode, resultBytes(rec.buf.Bytes()))
}

func statusOr0(status int, err error) int {
	if err != nil {
		return 0
	}
	return status
}

// sweep sends one /v1/sweep unit; its items are recorded after the run.
func (c *client) sweep(rec *recorder, u unit) {
	resp, err := c.post("/v1/sweep", u.body, "")
	if err != nil {
		rec.sweeps = append(rec.sweeps, sweepRaw{u: u})
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		rec.answered(len(u.specs))
	}
	rec.sweeps = append(rec.sweeps, sweepRaw{u: u, status: int32(statusOr0(resp.StatusCode, err)), body: body})
}

// splitSweeps turns the recorded sweep responses into per-item operations.
func (r *recorder) splitSweeps() {
	for _, s := range r.sweeps {
		var resp struct {
			Results []struct {
				Index  int             `json:"index"`
				Result json.RawMessage `json:"result"`
			} `json:"results"`
		}
		ok := s.status == http.StatusOK && json.Unmarshal(s.body, &resp) == nil && len(resp.Results) == len(s.u.specs)
		for i, spec := range s.u.specs {
			idx := s.u.first + int32(i)
			if !ok || resp.Results[i].Index != i || resp.Results[i].Result == nil {
				r.missing(idx, spec, int(s.status))
				continue
			}
			r.result(idx, spec, int(s.status), resp.Results[i].Result)
		}
	}
	r.sweeps = nil
}

// trajectory sends one stream and records every frame line. With a
// non-zero due time it also records open-loop latency: the first line from
// the scheduled start, each later line from the line before it.
func (c *client) trajectory(rec *recorder, u unit, clientKey string, due time.Time) {
	got := 0
	defer func() {
		for i := got; i < len(u.specs); i++ {
			rec.missing(u.first+int32(i), u.specs[i], 0)
		}
	}()
	resp, err := c.post("/v1/trajectory", u.body, clientKey)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		for ; got < len(u.specs); got++ {
			rec.missing(u.first+int32(got), u.specs[got], resp.StatusCode)
		}
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	prev := due
	for got < len(u.specs) && sc.Scan() {
		now := time.Now()
		res := resultBytes(sc.Bytes())
		if res == nil {
			return // an error line ends the stream; the deferred loop records the rest
		}
		if !due.IsZero() {
			rec.lat = append(rec.lat, latSample{now, ms(now.Sub(prev))})
			prev = now
		}
		rec.answered(1)
		rec.result(u.first+int32(got), u.specs[got], resp.StatusCode, res)
		got++
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pull runs units 0..n-1 on one goroutine per recorder, each taking the
// next unit as soon as it is free: a closed loop when do ignores time, an
// open loop when do waits for the unit's scheduled time. It returns when
// the last unit was taken.
func pull(n int, recs []*recorder, do func(rec *recorder, i int)) time.Time {
	var next, last atomic.Int64
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if i == n-1 {
					last.Store(time.Now().UnixNano())
				}
				do(rec, i)
			}
		}()
	}
	wg.Wait()
	return time.Unix(0, last.Load())
}

// waitUntil sleeps until t. It returns the moment the request is timed
// from and how late the generator sends it. When the connection was still
// busy at t, the wait was imposed by the server and the request is timed
// from t. Otherwise the connection was idle, any lateness is the
// generator's own (the runtime's timers wake at millisecond granularity
// when the process is idle), and the request is timed from when it was
// sent.
func waitUntil(t time.Time) (from time.Time, lag time.Duration) {
	d := time.Until(t)
	if d <= 0 {
		return t, -d
	}
	time.Sleep(d)
	now := time.Now()
	return now, now.Sub(t)
}

// phase is one timed window's outcome.
type phase struct {
	start   time.Time
	elapsed time.Duration
	// ops counts the operations the phase attempted.
	ops int
	// steady is how long the closed phase ran before its last unit was
	// sent: until then every connection had work.
	steady time.Duration
	// roundEnds holds, for trajectory-drift's closed phase, the offset
	// from start at which each round was fully answered.
	roundEnds []time.Duration
}

// rateSlices is how many equal slices of the closed phase's steady part
// its throughput is measured over.
const rateSlices = 10

// closedBounds returns the ends of the closed phase's throughput slices, as
// offsets from its start. For trajectory-drift there is one per cycle of
// trajCycle rounds: rounds differ in policy and in coalescing, and a cycle
// holds each kind once, so every cycle does the same work. For the other
// workloads there are rateSlices equal slices of the phase's steady part.
// The drain after the last unit is sent is left out: there the connections
// finish one by one, and how long the last one runs alone depends on which
// unit happens to be last.
func closedBounds(p phase) []time.Duration {
	var bounds []time.Duration
	if len(p.roundEnds) > 0 {
		for c := trajCycle; c <= len(p.roundEnds); c += trajCycle {
			bounds = append(bounds, p.roundEnds[c-1])
		}
	} else if w := p.steady / rateSlices; w > 0 {
		for i := 1; i <= rateSlices; i++ {
			bounds = append(bounds, time.Duration(i)*w)
		}
	}
	return bounds
}

// closedRate returns the closed phase's throughput: answered operations
// per second over its quiet slices. rates and steal are each slice's rate
// and steal share, for the report.
func closedRate(recs []*recorder, p phase, st *stealTrack) (rate float64, rates, steal []float64) {
	bounds := closedBounds(p)
	counts := make([]float64, len(bounds))
	for _, r := range recs {
		for _, d := range r.done {
			if i, _ := slices.BinarySearch(bounds, d); i < len(bounds) {
				counts[i]++
			}
		}
	}
	secs := make([]float64, len(bounds))
	rates = make([]float64, len(bounds))
	steal = make([]float64, len(bounds))
	prev := time.Duration(0)
	for i, b := range bounds {
		secs[i] = (b - prev).Seconds()
		rates[i] = counts[i] / secs[i]
		steal[i] = st.share(p.start.Add(prev), p.start.Add(b))
		prev = b
	}
	var n, s float64
	for _, i := range quietSlices(steal, func([]int) bool { return true }) {
		n += counts[i]
		s += secs[i]
	}
	return ratio(n, s), rates, steal
}

// runClosed drives the closed-loop phase: every connection sends its next
// unit as soon as the previous one is answered.
func runClosed(c *client, wl string, in *inputs, recs []*recorder) phase {
	start := time.Now()
	for _, r := range recs {
		r.t0 = start
	}
	defer func() {
		for _, r := range recs {
			r.t0 = time.Time{}
		}
	}()
	var ops int
	var last time.Time
	var ends []time.Duration
	switch wl {
	case "trajectory-drift":
		for _, rd := range in.closedRounds {
			last = time.Now()
			var wg sync.WaitGroup
			for conn := range rd {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.trajectory(recs[conn], rd[conn], clientKeys[conn], time.Time{})
				}()
				ops += len(rd[conn].specs)
			}
			wg.Wait()
			ends = append(ends, time.Since(start))
		}
	default:
		send := unitSender(c, wl)
		last = pull(len(in.closed), recs, func(rec *recorder, i int) { send(rec, in.closed[i]) })
		for _, u := range in.closed {
			ops += len(u.specs)
		}
	}
	return phase{start: start, elapsed: time.Since(start), ops: ops, steady: last.Sub(start), roundEnds: ends}
}

// clientKeys are the trajectory connections' admission identities.
var clientKeys = [2]string{"servebench-a", "servebench-b"}

func unitSender(c *client, wl string) func(*recorder, unit) {
	if wl == "sweep-grid" {
		return c.sweep
	}
	return c.analyze
}

// runOpen drives the open-loop phase: unit i is due at start + i/rate
// whether or not earlier units have been answered, and each answer is
// timed from its due time.
func runOpen(c *client, wl string, in *inputs, recs []*recorder, rate float64) phase {
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	var ops int
	switch wl {
	case "trajectory-drift":
		var wg sync.WaitGroup
		for conn := range clientKeys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r, rd := range in.openRounds {
					from, lag := waitUntil(due(r))
					recs[conn].lag = append(recs[conn].lag, ms(lag))
					c.trajectory(recs[conn], rd[conn], clientKeys[conn], from)
				}
			}()
		}
		wg.Wait()
		for _, rd := range in.openRounds {
			ops += len(rd[0].specs) + len(rd[1].specs)
		}
	default:
		send := unitSender(c, wl)
		pull(len(in.open), recs, func(rec *recorder, i int) {
			from, lag := waitUntil(due(i))
			rec.lag = append(rec.lag, ms(lag))
			send(rec, in.open[i])
			now := time.Now()
			rec.lat = append(rec.lat, latSample{now, ms(now.Sub(from))})
		})
		for _, u := range in.open {
			ops += len(u.specs)
		}
	}
	return phase{start: start, elapsed: time.Since(start), ops: ops}
}

// openSlices is how many equal time slices the open phase is cut into,
// and minLatencySamples the fewest samples its percentiles are taken from,
// so that p95 has ten samples beyond it. trajectory-drift's open phase is
// one slice: its rounds differ in cost and it runs under two cycles of
// them, so leaving slices out would change the mix of work measured.
const (
	openSlices        = 10
	minLatencySamples = 200
)

func openSliceCount(wl string) int {
	if wl == "trajectory-drift" {
		return 1
	}
	return openSlices
}

// openLatencies returns the latencies, in ms, of the samples in the quiet
// ones of n equal time slices of the open phase (a sample belongs to the
// slice its answer arrived in), and the steal share of each slice, for
// the report.
func openLatencies(samples []latSample, p phase, st *stealTrack, n int) (pool, steal []float64) {
	w := max(p.elapsed/time.Duration(n), 1)
	bySlice := make([][]float64, n)
	for _, s := range samples {
		i := min(max(int(s.at.Sub(p.start)/w), 0), n-1)
		bySlice[i] = append(bySlice[i], s.ms)
	}
	steal = make([]float64, n)
	for i := range steal {
		steal[i] = st.share(p.start.Add(time.Duration(i)*w), p.start.Add(time.Duration(i+1)*w))
	}
	enough := func(kept []int) bool {
		n := 0
		for _, i := range kept {
			n += len(bySlice[i])
		}
		return n >= minLatencySamples
	}
	for _, i := range quietSlices(steal, enough) {
		pool = append(pool, bySlice[i]...)
	}
	return pool, steal
}

// prefill sends the set-up units over the given connections.
func prefill(c *client, in *inputs, conns int) error {
	var failed atomic.Int64
	pull(len(in.prefill), make([]*recorder, conns), func(_ *recorder, i int) {
		resp, err := c.post("/v1/analyze", in.prefill[i].body, "")
		if err != nil {
			failed.Add(1)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			failed.Add(1)
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("prefill: %d of %d requests failed", n, len(in.prefill))
	}
	return nil
}
