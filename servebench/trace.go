package main

// The traced run. It replays a prefix of the workload's own inputs through
// the benchmark's composition of the layers' public calls — the same
// sequence the server runs per request — and records a span around every
// call: speccodec.Decode, CacheKey, LocalityKey, rescache.Do,
// dispersal.FromSpec, warmcache.Lookup/Store, Analysis.IFDContext and
// SPoAContext, the session scheduler's Acquire, Game.EvolveTo frames and
// dispersal.Sweep items. Spans stay in memory and are written out at the
// end. The same composition runs once more untraced, so the tracing
// overhead is measured rather than assumed.

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dispersal"
	"dispersal/internal/policy"
	"dispersal/internal/rescache"
	"dispersal/internal/session"
	"dispersal/internal/solve"
	"dispersal/internal/speccodec"
	"dispersal/internal/warmcache"
)

// span is one call into a layer. Parent is -1 for an operation's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans; a nil tracer records nothing, which is the
// untraced pass.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

type spanRef struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) begin(op, parent int32, layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Op: op, Layer: layer, Name: name}, start: time.Now()}
}

func (r spanRef) id() int32 { return r.s.ID }

func (r spanRef) end(tag string) {
	if r.t == nil {
		return
	}
	end := time.Now()
	r.s.Tag = tag
	r.s.Start = int64(r.start.Sub(r.t.epoch))
	r.s.End = int64(end.Sub(r.t.epoch))
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

// solved is what the composition caches per game: enough to re-seed a
// trajectory chain after a hit, as the server does.
type solved struct {
	ifd []float64
	nu  float64
}

// composer holds one pass's layer instances, fresh for every pass so the
// traced and untraced passes do the same work.
type composer struct {
	tr    *tracer
	cache *rescache.Cache[solved]
	warm  *warmcache.Cache
	sched *session.Scheduler
	ctx   context.Context
}

func newComposer(tr *tracer, workers int) *composer {
	return &composer{
		tr:    tr,
		cache: rescache.New[solved](0),
		warm:  warmcache.New(0),
		sched: session.NewScheduler(workers),
		ctx:   context.Background(),
	}
}

// solve is the server's miss path: seed from the warm cache, solve the
// equilibrium and the SPoA, store the state back.
func (c *composer) solve(op, parent int32, a *dispersal.Analysis, spec dispersal.Spec, seeded bool) (solved, error) {
	sp := c.tr.begin(op, parent, "speccodec", "locality_key")
	lkey, lerr := speccodec.LocalityKey(spec)
	sp.end("")
	if lerr == nil && !seeded {
		sp = c.tr.begin(op, parent, "warmcache", "lookup")
		st := c.warm.Lookup(lkey, spec.Values)
		sp.end("")
		if st != nil {
			a.Game().SeedState(st)
			seeded = true
		}
	}
	tag := "cold"
	if seeded {
		tag = "warm"
	}
	sp = c.tr.begin(op, parent, "ifd", "ifd")
	p, nu, err := a.IFDContext(c.ctx)
	sp.end(tag)
	if err != nil {
		return solved{}, err
	}
	sp = c.tr.begin(op, parent, "spoa", "spoa")
	_, err = a.SPoAContext(c.ctx)
	sp.end(tag)
	if err != nil {
		return solved{}, err
	}
	if lerr == nil {
		sp = c.tr.begin(op, parent, "warmcache", "store")
		c.warm.Store(lkey, a.Game().StateSnapshot())
		sp.end("")
	}
	return solved{ifd: p, nu: nu}, nil
}

// cached is the server's cachedSolve: key, then rescache.Do around the
// miss path. a may be nil, in which case the game is built on a miss.
func (c *composer) cached(op, parent int32, spec dispersal.Spec, a *dispersal.Analysis) error {
	sp := c.tr.begin(op, parent, "speccodec", "cache_key")
	key, err := speccodec.CacheKey(spec)
	sp.end("")
	if err != nil {
		return err
	}
	do := c.tr.begin(op, parent, "rescache", "do")
	_, hit, err := c.cache.Do(c.ctx, key, func() (solved, error) {
		if a == nil {
			fs := c.tr.begin(op, do.id(), "dispersal", "from_spec")
			g, err := dispersal.FromSpec(spec)
			fs.end("")
			if err != nil {
				return solved{}, err
			}
			a = g.Analyze()
		}
		return c.solve(op, do.id(), a, spec, false)
	})
	do.end(hitTag(hit))
	return err
}

func hitTag(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (c *composer) analyze(op int32, body []byte) error {
	root := c.tr.begin(op, -1, "bench", "analyze")
	defer root.end("")
	sp := c.tr.begin(op, root.id(), "speccodec", "decode")
	spec, err := speccodec.Decode(body)
	sp.end("")
	if err != nil {
		return err
	}
	return c.cached(op, root.id(), spec, nil)
}

// trajectory composes one stream, first maxFrames frames only.
func (c *composer) trajectory(op int32, body []byte, maxFrames int) error {
	root := c.tr.begin(op, -1, "bench", "trajectory")
	defer root.end("")
	sp := c.tr.begin(op, root.id(), "speccodec", "decode")
	var req struct {
		Spec   json.RawMessage `json:"spec"`
		Frames [][]float64     `json:"frames"`
	}
	err := json.Unmarshal(body, &req)
	var spec dispersal.Spec
	if err == nil {
		spec, err = speccodec.Decode(req.Spec)
	}
	sp.end("")
	if err != nil {
		return err
	}
	sp = c.tr.begin(op, root.id(), "dispersal", "from_spec")
	cur, err := dispersal.FromSpec(spec)
	sp.end("")
	if err != nil {
		return err
	}
	for i, fr := range req.Frames[:min(maxFrames, len(req.Frames))] {
		frame := c.tr.begin(op, root.id(), "dispersal", "frame")
		next, err := cur.EvolveTo(dispersal.Values(fr))
		if err != nil {
			return err
		}
		fspec := spec
		fspec.Values = fr
		sp = c.tr.begin(op, frame.id(), "speccodec", "cache_key")
		key, err := speccodec.FrameKey(spec, fr)
		sp.end("")
		if err != nil {
			return err
		}
		sp = c.tr.begin(op, frame.id(), "session", "acquire")
		release, err := c.sched.Acquire(c.ctx)
		sp.end("")
		if err != nil {
			return err
		}
		do := c.tr.begin(op, frame.id(), "rescache", "do")
		res, hit, err := c.cache.Do(c.ctx, key, func() (solved, error) {
			return c.solve(op, do.id(), next.Analyze(), fspec, i > 0)
		})
		do.end(hitTag(hit))
		release()
		if err != nil {
			return err
		}
		if hit {
			next.SeedWarm(res.ifd, res.nu)
		}
		frame.end("")
		cur = next
	}
	return nil
}

// sweep composes one /v1/sweep request over dispersal.Sweep.
func (c *composer) sweep(op int32, body []byte, workers int) error {
	root := c.tr.begin(op, -1, "bench", "sweep")
	defer root.end("")
	sp := c.tr.begin(op, root.id(), "speccodec", "decode")
	var req struct {
		Specs []json.RawMessage `json:"specs"`
	}
	err := json.Unmarshal(body, &req)
	specs := make([]dispersal.Spec, len(req.Specs))
	for i := range req.Specs {
		if err == nil {
			specs[i], err = speccodec.Decode(req.Specs[i])
		}
	}
	sp.end("")
	if err != nil {
		return err
	}
	sw := c.tr.begin(op, root.id(), "dispersal", "sweep")
	res, err := dispersal.Sweep(c.ctx, specs, func(ctx context.Context, a *dispersal.Analysis) (struct{}, error) {
		item := c.tr.begin(op, sw.id(), "dispersal", "sweep_item")
		defer item.end("")
		return struct{}{}, c.cached(op, item.id(), a.Game().Spec(), a)
	}, dispersal.WithWorkers(workers))
	sw.end("")
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// traceInputs picks the part of a workload's inputs the traced run
// replays, sized to take about a second per pass.
type traceInput struct {
	kind string
	body []byte
}

func traceInputs(wl string, in *inputs) []traceInput {
	var out []traceInput
	switch wl {
	case "analyze-hit":
		// The first 24 distinct games of the timed stream (the most popular
		// ones, by construction), then the stream's requests for them.
		pick := map[int32]bool{}
		for _, u := range in.closed {
			if len(pick) == 24 {
				break
			}
			pick[u.specs[0]] = true
		}
		for _, u := range in.closed {
			if pick[u.specs[0]] && len(out) < 3000 {
				out = append(out, traceInput{"analyze", u.body})
			}
		}
	case "analyze-miss":
		// The fresh games at even operations 0..46, then their perturbed
		// children missParentLag operations later, so the replay has warm
		// lookups that hit and warm-seeded solves as well as cold ones.
		for _, lag := range []int{0, missParentLag} {
			for i := lag; i < lag+48 && i < len(in.closed); i += 2 {
				out = append(out, traceInput{"analyze", in.closed[i].body})
			}
		}
	case "trajectory-drift":
		for _, rd := range in.closedRounds[:min(2, len(in.closedRounds))] {
			out = append(out, traceInput{"trajectory", rd[0].body}, traceInput{"trajectory", rd[1].body})
		}
	case "sweep-grid":
		for _, u := range in.closed[:min(8, len(in.closed))] {
			out = append(out, traceInput{"sweep", u.body})
		}
	}
	return out
}

// tracedFrames bounds the frames composed per trajectory stream.
const tracedFrames = 12

func compose(tr *tracer, ins []traceInput, workers int) (time.Duration, error) {
	c := newComposer(tr, workers)
	start := time.Now()
	for i, in := range ins {
		var err error
		switch in.kind {
		case "analyze":
			err = c.analyze(int32(i), in.body)
		case "trajectory":
			err = c.trajectory(int32(i), in.body, tracedFrames)
		case "sweep":
			err = c.sweep(int32(i), in.body, workers)
		}
		if err != nil {
			return 0, fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// traceReport is what the traced run measured.
type traceReport struct {
	spans []span
	// overhead is traced composition time over untraced.
	overhead float64
	// total is the roots' summed duration; self sums each layer's self
	// time. The self times add up to total plus overlap, the time sibling
	// spans ran concurrently (sweep items on two workers).
	total, overlap time.Duration
	self           map[string]time.Duration
	// geeNS is the mean time of one solve.GeeLevels call over the games'
	// (k, C), geeTerms the mean number of terms per call.
	geeNS, geeTerms float64
}

func runTrace(wl string, in *inputs, workers int, spanFile string) (traceReport, error) {
	ins := traceInputs(wl, in)
	var rep traceReport
	untraced, err := compose(nil, ins, workers)
	if err != nil {
		return rep, err
	}
	tr := &tracer{epoch: time.Now()}
	traced, err := compose(tr, ins, workers)
	if err != nil {
		return rep, err
	}
	rep.spans = tr.spans
	rep.overhead = float64(traced) / float64(untraced)
	rep.total, rep.overlap, rep.self = selfTimes(rep.spans)
	rep.geeNS, rep.geeTerms = geeKernel(ins)
	return rep, writeSpans(spanFile, rep.spans)
}

// selfTimes returns the roots' total duration, the time sibling spans
// overlapped, and each layer's self time: a span's duration minus the part
// of it its children cover.
func selfTimes(spans []span) (total, overlap time.Duration, self map[string]time.Duration) {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
		kids := children[s.ID]
		cov := covered(kids)
		self[s.Layer] += time.Duration(s.End - s.Start - cov)
		for _, k := range kids {
			overlap += time.Duration(k.End - k.Start)
		}
		overlap -= time.Duration(cov)
	}
	return total, overlap, self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var n, end int64
	for _, s := range spans {
		if s.Start > end {
			end = s.Start
		}
		if s.End > end {
			n += s.End - end
			end = s.End
		}
	}
	return n
}

// medianOf returns the median duration of the spans named name (and
// tagged tag, when tag is not empty) in unit, or 0 when there are none.
func medianOf(spans []span, name, tag string, unit time.Duration) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			d = append(d, float64(s.End-s.Start)/float64(unit))
		}
	}
	return percentile(d, 0.5)
}

// geeKernel times solve.GeeLevels, the kernel ROADMAP item 2 replaces, on
// the (k, C) pairs of the traced games.
func geeKernel(ins []traceInput) (nsPerCall, termsPerCall float64) {
	type game struct {
		k int
		c policy.Congestion
	}
	var games []game
	seen := map[string]bool{}
	add := func(raw []byte) {
		s, err := speccodec.Decode(raw)
		if err != nil {
			return
		}
		key := fmt.Sprintf("%d/%s", s.K, s.Policy.Name())
		if !seen[key] && len(games) < 16 {
			seen[key] = true
			games = append(games, game{s.K, s.Policy})
		}
	}
	for _, in := range ins {
		switch in.kind {
		case "analyze":
			add(in.body)
		default:
			var req struct {
				Spec  json.RawMessage   `json:"spec"`
				Specs []json.RawMessage `json:"specs"`
			}
			if json.Unmarshal(in.body, &req) == nil {
				if req.Spec != nil {
					add(req.Spec)
				}
				for _, s := range req.Specs {
					add(s)
				}
			}
		}
	}
	const calls = 4000
	var elapsed time.Duration
	var terms float64
	for _, g := range games {
		levels := solve.Levels(g.c, g.k)
		start := time.Now()
		for i := range calls {
			geeSink += solve.GeeLevels(levels, (float64(i)+0.5)/calls)
		}
		elapsed += time.Since(start)
		terms += float64(g.k) * calls
	}
	n := float64(len(games) * calls)
	if n == 0 {
		return 0, 0
	}
	return float64(elapsed.Nanoseconds()) / n, terms / n
}

// geeSink keeps the timed kernel calls from being optimized away.
var geeSink float64

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
