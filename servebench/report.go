package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// report turns one run's measurements into named metrics.
type report struct {
	wl      string
	seed    uint64
	seconds int
	wc      wlConfig
	in      *inputs
	m       measurement
	v       verdict
	trace   *traceReport
}

func (r *report) line(kind, name string, value float64, unit, note string) {
	fmt.Printf("%-6s %-30s %14.6g %-6s %s\n", kind, name, value, unit, note)
}

func (r *report) printE2E() {
	m := &r.m
	fmt.Printf("servebench workload=%s seed=%d seconds=%d closed_ops=%d open_ops=%d open_rate=%g/s conns=%d\n",
		r.wl, r.seed, r.seconds, m.closed.ops, m.open.ops, r.wc.OpenRate, r.wc.Conns)
	e := r.e2eMetrics()
	over := fmt.Sprintf("%d slices of the first %.3f s", len(m.rates), m.closed.steady.Seconds())
	if len(m.closed.roundEnds) > 0 {
		over = fmt.Sprintf("%d cycles of %d rounds", len(m.rates), trajCycle)
	}
	r.line("e2e", "ops_per_s", e["ops_per_s"].Value, "ops/s",
		fmt.Sprintf("n=%d answered ops in %.3f s, closed loop, rate over the quiet ones of %s", m.closedOK, m.closed.elapsed.Seconds(), over))
	fmt.Printf("       slice rates %.4g ops/s; steal shares %.3f\n", m.rates, m.rateSteal)
	for _, q := range []string{"latency_p50_ms", "latency_p95_ms"} {
		r.line("e2e", q, e[q].Value, "ms", fmt.Sprintf("n=%d of %d samples, open loop, the quiet ones of %d time slices",
			len(m.latPool), len(m.lat), len(m.latSteal)))
	}
	fmt.Printf("       open slice steal shares %.3f\n", m.latSteal)
	r.line("e2e", "error_rate", ratio(float64(r.v.failed), float64(r.v.attempted)), "ratio",
		fmt.Sprintf("n=%d attempted, %d failed", r.v.attempted, r.v.failed))
	r.line("e2e", "setup_s", e["setup_s"].Value, "s", fmt.Sprintf("n=%d set-ups, median; min %.4g, max %.4g",
		len(m.setup), slices.Min(m.setup), slices.Max(m.setup)))
	r.line("e2e", "rss_peak_mb", e["rss_peak_mb"].Value, "MB", "n=1, dispersald VmHWM")
	fmt.Printf("host   CPU time stolen by the hypervisor during the timed windows: %.2f s\n", m.stealS)
}

// e2eMetrics are the end-to-end metrics of BENCHMARK.json.
func (r *report) e2eMetrics() map[string]metric {
	m := &r.m
	return map[string]metric{
		"ops_per_s":      {m.rate, "ops/s"},
		"latency_p50_ms": {percentile(m.latPool, 0.5), "ms"},
		"latency_p95_ms": {percentile(m.latPool, 0.95), "ms"},
		"setup_s":        {percentile(m.setup, 0.5), "s"},
		"rss_peak_mb":    {m.rssMB, "MB"},
	}
}

func (r *report) printVerdict() {
	v := &r.v
	fmt.Printf("verify %s: attempted=%d failed=%d unanswered=%d distinct_results=%d cold_compared=%d violations=%d (invariant=%d cold=%d repeat=%d; defect_a=%d defect_b=%d other=%d)\n",
		r.wl, v.attempted, v.failed, v.unanswered, v.distinct, v.cold, len(v.violations),
		v.count("invariant", ""), v.count("cold", ""), v.count("repeat", ""),
		v.count("", "a"), v.count("", "b"), v.count("", "other"))
	for i, x := range v.violations {
		if i == 5 {
			fmt.Printf("verify   ... %d more\n", len(v.violations)-i)
			break
		}
		s := &r.in.specs[x.spec]
		fmt.Printf("verify   %s class=%s %s: game %s\n", x.kind, x.class, x.detail, s.canonical())
	}
}

// scrapeMetrics are the per-layer metrics read off /metricsz and /statsz
// between two scrapes, over ops operations.
func (r *report) scrapeMetrics(b, a scrape, ops int) []named {
	q := func(series string, p float64) float64 { return quantileMS(b, a, series, p) }
	d := func(get func(statsz) int64) float64 { return float64(get(a.stats) - get(b.stats)) }
	hits := d(func(s statsz) int64 { return s.Cache.Hits })
	calls := hits + d(func(s statsz) int64 { return s.Cache.Misses + s.Cache.Shared })
	warmHits := d(func(s statsz) int64 { return s.WarmCache.Hits })
	seeded := d(func(s statsz) int64 { return s.WarmCache.Seeded })
	frames := d(func(s statsz) int64 { return s.Requests.TrajectoryFrames })
	return []named{
		{"server.request_p50_ms", metric{q("handler="+handlers[r.wl], 0.5), "ms"}},
		{"server.decode_p50_ms", metric{q("stage=decode", 0.5), "ms"}},
		{"server.solves_per_op", metric{ratio(d(func(s statsz) int64 { return s.Solves }), float64(ops)), "ratio"}},
		{"rescache.hit_ratio", metric{ratio(hits, calls), "ratio"}},
		{"rescache.chain_wait_p50_ms", metric{q("stage=chain_wait", 0.5), "ms"}},
		{"session.queue_wait_p50_ms", metric{q("stage=queue_wait", 0.5), "ms"}},
		{"session.queue_wait_p95_ms", metric{q("stage=queue_wait", 0.95), "ms"}},
		{"session.coalesced_ratio", metric{ratio(d(func(s statsz) int64 { return s.Sessions.Coalesced }), frames), "ratio"}},
		{"warmcache.lookup_hit_ratio", metric{ratio(warmHits, warmHits+d(func(s statsz) int64 { return s.WarmCache.Misses })), "ratio"}},
		{"warmcache.seeded_ratio", metric{ratio(seeded, seeded+d(func(s statsz) int64 { return s.WarmCache.Fallback })), "ratio"}},
		{"warmcache.seed_local_p50_ms", metric{q("stage=seed_local", 0.5), "ms"}},
		{"ifd.solve_eq_p50_ms", metric{q("stage=solve_eq", 0.5), "ms"}},
		{"spoa.solve_opt_p50_ms", metric{q("stage=solve_opt", 0.5), "ms"}},
		{"ifd.warm_ratio", metric{ratio(d(func(s statsz) int64 { return s.Requests.TrajectoryWarmed }), frames), "ratio"}},
	}
}

// allScrapeMetrics covers both timed windows, plus the generator's lag.
func (r *report) allScrapeMetrics() []named {
	m := &r.m
	return append(r.scrapeMetrics(m.before, m.after, m.closed.ops+m.open.ops),
		named{"loadgen.lag_p95_ms", metric{percentile(m.lag, 0.95), "ms"}})
}

type named struct {
	name string
	metric
}

// printScrape prints each scraped metric over both windows, then over the
// closed and the open window apart.
func (r *report) printScrape() {
	m := &r.m
	closed := r.scrapeMetrics(m.before, m.mid, m.closed.ops)
	open := r.scrapeMetrics(m.mid, m.after, m.open.ops)
	for i, x := range r.allScrapeMetrics() {
		note := "generator"
		if i < len(closed) {
			note = fmt.Sprintf("scrape; closed %.6g, open %.6g", closed[i].Value, open[i].Value)
		}
		r.line("layer", x.name, x.Value, x.Unit, note)
	}
}

// tracedMetrics are the per-layer metrics of the traced run.
func (r *report) tracedMetrics() []named {
	sp := r.trace.spans
	us, msU := time.Microsecond, time.Millisecond
	return []named{
		{"speccodec.decode_us", metric{medianOf(sp, "decode", "", us), "us"}},
		{"speccodec.cache_key_us", metric{medianOf(sp, "cache_key", "", us), "us"}},
		{"speccodec.locality_key_us", metric{medianOf(sp, "locality_key", "", us), "us"}},
		{"rescache.do_hit_us", metric{medianOf(sp, "do", "hit", us), "us"}},
		{"session.acquire_us", metric{medianOf(sp, "acquire", "", us), "us"}},
		{"warmcache.lookup_us", metric{medianOf(sp, "lookup", "", us), "us"}},
		{"warmcache.store_us", metric{medianOf(sp, "store", "", us), "us"}},
		{"ifd.cold_ms", metric{medianOf(sp, "ifd", "cold", msU), "ms"}},
		{"ifd.warm_ms", metric{medianOf(sp, "ifd", "warm", msU), "ms"}},
		{"spoa.cold_ms", metric{medianOf(sp, "spoa", "cold", msU), "ms"}},
		{"spoa.warm_ms", metric{medianOf(sp, "spoa", "warm", msU), "ms"}},
		{"dispersal.frame_ms", metric{medianOf(sp, "frame", "", msU), "ms"}},
		{"dispersal.sweep_item_ms", metric{medianOf(sp, "sweep_item", "", msU), "ms"}},
		{"solve.gee_levels_ns", metric{r.trace.geeNS, "ns"}},
		{"solve.gee_terms", metric{r.trace.geeTerms, "count"}},
		{"trace.overhead_ratio", metric{r.trace.overhead, "ratio"}},
	}
}

func (r *report) printTrace(spanFile string) {
	t := r.trace
	fmt.Printf("trace %s: %d spans written to %s; composed time %.3f ms\n",
		r.wl, len(t.spans), spanFile, float64(t.total)/1e6)
	layers := make([]string, 0, len(t.self))
	var sum time.Duration
	for l, d := range t.self {
		layers = append(layers, l)
		sum += d
	}
	sort.Slice(layers, func(i, j int) bool { return t.self[layers[i]] > t.self[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s=%.3fms(%.1f%%)", l, float64(t.self[l])/1e6, 100*ratio(float64(t.self[l]), float64(sum))))
	}
	fmt.Printf("trace self time by layer: %s\n", strings.Join(parts, " "))
	fmt.Printf("trace self-time sum %.3f ms = composed %.3f ms + overlap of concurrent spans %.3f ms (residual %.3f ms)\n",
		float64(sum)/1e6, float64(t.total)/1e6, float64(t.overlap)/1e6, float64(sum-t.total-t.overlap)/1e6)
	for _, x := range r.tracedMetrics() {
		r.line("layer", x.name, x.Value, x.Unit, "traced")
	}
}

// layerMetrics are all per-layer metrics of BENCHMARK.json.
func (r *report) layerMetrics() map[string]metric {
	out := map[string]metric{}
	for _, x := range append(r.allScrapeMetrics(), r.tracedMetrics()...) {
		out[x.name] = x.metric
	}
	return out
}
