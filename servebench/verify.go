package main

// The output verifier. It checks every served analysis against the
// paper's own invariants, recomputed here from the game alone: the IFD
// pays every explored site the same value nu and no unexplored site pays
// more; coverage is the occupancy expectation sum f(x)(1-(1-p(x))^k);
// SPoA is the ratio of the two coverages, at least 1, and exactly 1 under
// the exclusive policy (Theorem 4). Nothing here calls the solvers, so a
// solver bug cannot hide behind itself. The tolerances are the ones the
// library's own tests use.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
)

// result is the wire form of one served analysis.
type result struct {
	M           int       `json:"m"`
	K           int       `json:"k"`
	Policy      string    `json:"policy"`
	IFD         []float64 `json:"ifd"`
	Nu          float64   `json:"nu"`
	Optimum     []float64 `json:"optimum"`
	OptCoverage float64   `json:"opt_coverage"`
	EqCoverage  float64   `json:"eq_coverage"`
	SPoA        float64   `json:"spoa"`
}

const (
	negTol       = 1e-12 // smallest strategy entry accepted
	massTol      = 1e-9  // |sum p - 1|
	coverTol     = 1e-9  // opt_coverage against the recomputed coverage, relative
	ratioTol     = 1e-12 // spoa against opt_coverage/eq_coverage, relative
	spoaFloorTol = 1e-9  // spoa >= 1 - spoaFloorTol
	theorem4Tol  = 1e-6  // |spoa - 1| under the exclusive policy
	eqTol        = 1e-6  // equilibrium conditions, the ifd.Check form
	eqCoverTol   = 1e-6  // eq_coverage against Cover(ifd), relative
	pointMassTol = 1e-9  // an IFD entry this close to 1 is a point mass
)

// The checks classify reads to tell a known defect from a new one; the
// other checks are named by literals.
const (
	checkEqualPayoff = "equal_payoff"
	checkEqCoverage  = "eq_coverage"
)

// failure is one failed check: its name and what it saw.
type failure struct {
	check, msg string
}

// checkResult returns one failure per invariant r violates as the analysis
// of s; none means r is correct.
func checkResult(s *gameSpec, r *result) []failure {
	var bad []failure
	fail := func(check, format string, args ...any) {
		bad = append(bad, failure{check, fmt.Sprintf(format, args...)})
	}
	f, k := s.Values, s.K
	if r.M != len(f) || r.K != k {
		fail("shape", "shape: m=%d k=%d, want m=%d k=%d", r.M, r.K, len(f), k)
	}
	for _, p := range []struct {
		name string
		p    []float64
	}{{"ifd", r.IFD}, {"optimum", r.Optimum}} {
		if msg := strategyError(p.p, len(f)); msg != "" {
			fail("strategy", "%s: %s", p.name, msg)
		}
	}
	for _, v := range []float64{r.Nu, r.OptCoverage, r.EqCoverage, r.SPoA} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("finite", "non-finite scalar %v", v)
		}
	}
	if len(bad) > 0 {
		return bad // the checks below index and sum the strategies
	}

	if c := cover(f, r.Optimum, k); !relClose(c, r.OptCoverage, coverTol) {
		fail("opt_coverage", "opt_coverage %v, recomputed %v", r.OptCoverage, c)
	}
	if q := r.OptCoverage / r.EqCoverage; !relClose(r.SPoA, q, ratioTol) {
		fail("spoa_ratio", "spoa %v, opt_coverage/eq_coverage %v", r.SPoA, q)
	}
	if r.SPoA < 1-spoaFloorTol {
		fail("spoa_floor", "spoa %v below 1", r.SPoA)
	}
	if s.Policy.Name == "exclusive" && math.Abs(r.SPoA-1) > theorem4Tol {
		fail("theorem4", "theorem 4: spoa %v under the exclusive policy", r.SPoA)
	}

	levels := s.levels()
	if constantOnRange(levels) {
		// Every split over the top sites is an equilibrium; the worst is a
		// point mass on one of them, paying f(1)*C(1).
		top := make([]float64, len(f))
		top[0] = 1
		if c := cover(f, top, k); !relClose(r.EqCoverage, c, eqCoverTol) {
			fail("constant_policy", "eq_coverage %v, point mass at the top site covers %v", r.EqCoverage, c)
		}
		if !almostEqual(r.Nu, f[0]*levels[0], eqTol) {
			fail("constant_policy", "nu %v, constant policy pays %v", r.Nu, f[0]*levels[0])
		}
		return bad
	}
	for x, p := range r.IFD {
		if p > eqTol {
			if v := f[x] * gee(levels, p); !almostEqual(v, r.Nu, eqTol) {
				fail(checkEqualPayoff, "equilibrium: site %d (p=%v) pays %v, nu %v", x+1, p, v, r.Nu)
				break
			}
		}
	}
	// Off the support (p = 0) a site pays f(x)*C(1). A site with
	// 0 < p <= eqTol is explored, so it is held to its payoff at p: with
	// k = 48 such a site's f(x)*C(1) exceeds nu by far more than eqTol in
	// a correct equilibrium.
	for x, p := range r.IFD {
		if p <= eqTol {
			if v := f[x] * gee(levels, p); v > r.Nu+eqTol*(1+math.Abs(r.Nu)) {
				fail("off_support", "equilibrium: site %d (p=%v) pays %v > nu %v", x+1, p, v, r.Nu)
				break
			}
		}
	}
	// eq_coverage comes from the SPoA stage's own equilibrium solve, not
	// from the ifd field (under the exclusive policy ifd is the closed-form
	// sigma*), so the two agree within solver tolerance, not bit for bit.
	if c := cover(f, r.IFD, k); !relClose(r.EqCoverage, c, eqCoverTol) {
		fail(checkEqCoverage, "eq_coverage %v, Cover(ifd) %v", r.EqCoverage, c)
	}
	return bad
}

func strategyError(p []float64, m int) string {
	if len(p) != m {
		return fmt.Sprintf("length %d, want %d", len(p), m)
	}
	sum := 0.0
	for x, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < -negTol {
			return fmt.Sprintf("entry %d is %v", x+1, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > massTol {
		return fmt.Sprintf("mass %v", sum)
	}
	return ""
}

// cover is the occupancy expectation sum_x f(x) (1 - (1-p(x))^k).
func cover(f, p []float64, k int) float64 {
	total := 0.0
	for x, v := range p {
		v = min(max(v, 0), 1)
		total += f[x] * -math.Expm1(float64(k)*math.Log1p(-v))
	}
	return total
}

// gee is g(q) = sum_{l=1..k} C(l) P[Binomial(k-1, q) = l-1], the expected
// share of a site's value when every player visits it with probability q.
func gee(levels []float64, q float64) float64 {
	n := len(levels) - 1
	switch {
	case q <= 0:
		return levels[0]
	case q >= 1:
		return levels[n]
	}
	lq, lp := math.Log(q), math.Log1p(-q)
	lgn, _ := math.Lgamma(float64(n + 1))
	total := 0.0
	for j := 0; j <= n; j++ {
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(n - j + 1))
		total += levels[j] * math.Exp(lgn-lj-lr+float64(j)*lq+float64(n-j)*lp)
	}
	return total
}

// constantOnRange reports whether C(1) = ... = C(k) exactly, the case in
// which congestion never matters.
func constantOnRange(levels []float64) bool {
	for _, c := range levels[1:] {
		if c != levels[0] {
			return false
		}
	}
	return true
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// almostEqual is the ifd.Check comparison: within tol absolutely, or
// relatively for large magnitudes.
func almostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// violation is one failed check. class names the known seed defect it is
// an instance of, judged by its symptom: "a" (point-mass IFD with a wrong
// nu), "b" (twopoint payoffs broken by the final normalization) or
// "other".
type violation struct {
	kind   string // "invariant", "cold" or "repeat"
	spec   int32
	class  string
	detail string
}

// classifyInvariant names the defect whose symptom the failures bad of r
// show, "other" when they match neither:
//
//   - (a): the IFD is a point mass on one site, the only failure is the
//     equal-payoff check, and nu lies between the best payoff off the
//     support, f(x)*C(1), and the support's own payoff f(x*)*C(k): the flat
//     stretch on which the total mass is exactly 1;
//   - (b): the policy is twopoint and every failure is the equal-payoff or
//     the eq_coverage-against-Cover(ifd) check.
func classifyInvariant(s *gameSpec, r *result, bad []failure) string {
	only := func(checks ...string) bool {
		for _, b := range bad {
			if !slices.Contains(checks, b.check) {
				return false
			}
		}
		return len(bad) > 0
	}
	switch {
	case only(checkEqualPayoff) && nuOnFlatStretch(s, r, r.Nu):
		return "a"
	case s.Policy.Name == "twopoint" && only(checkEqualPayoff, checkEqCoverage):
		return "b"
	}
	return "other"
}

// nuOnFlatStretch reports whether r's IFD is a point mass and nu lies
// between the best off-support payoff and the support's payoff, within the
// equilibrium tolerance.
func nuOnFlatStretch(s *gameSpec, r *result, nu float64) bool {
	top := pointMass(r.IFD)
	if top < 0 || len(r.IFD) != len(s.Values) {
		return false
	}
	levels := s.levels()
	off := math.Inf(-1)
	for x, v := range s.Values {
		if x != top {
			off = math.Max(off, v*levels[0])
		}
	}
	on := s.Values[top] * levels[len(levels)-1]
	lo, hi := math.Min(off, on), math.Max(off, on)
	return nu >= lo-eqTol*(1+math.Abs(lo)) && nu <= hi+eqTol*(1+math.Abs(hi))
}

// pointMass returns the site an IFD puts all its mass on, or -1.
func pointMass(p []float64) int {
	if len(p) == 0 {
		return -1
	}
	if x := slices.Index(p, slices.Max(p)); p[x] >= 1-pointMassTol {
		return x
	}
	return -1
}

// classifyCold names the defect a cold-solve mismatch is an instance of,
// given the served answer r, the cold answer c and the class of r's own
// invariant failures ("" when r passed them):
//
//   - (a): both answers are the same point mass, only nu differs, and both
//     nus lie on the flat stretch;
//   - (b): the policy is twopoint and r shows symptom (b).
func classifyCold(s *gameSpec, r *result, c coldResult, invClass string) string {
	switch {
	case c.err == nil && len(c.ifd) == len(r.IFD) && pointMass(c.ifd) == pointMass(r.IFD) &&
		nuOnFlatStretch(s, r, r.Nu) && nuOnFlatStretch(s, r, c.nu) &&
		math.Abs(r.SPoA-c.spoa)/(1+c.spoa) <= 1e-9:
		return "a"
	case s.Policy.Name == "twopoint" && invClass == "b":
		return "b"
	}
	return "other"
}

// verdict is the verifier's account of one run.
type verdict struct {
	attempted, failed int
	// unanswered counts operations with no usable 200 answer.
	unanswered int
	// distinct counts the distinct (game, result) pairs checked, cold the
	// operations compared with a cold in-process solve.
	distinct, cold int
	violations     []violation
}

func (v verdict) count(kind, class string) int {
	n := 0
	for _, x := range v.violations {
		if (kind == "" || x.kind == kind) && (class == "" || x.class == class) {
			n++
		}
	}
	return n
}

// coldEvery is the sampling period of the cold-solve comparison.
const coldEvery = 16

// verifyRun checks every operation of a run: each distinct result once
// against the invariants, repeats of a game for byte identity (a coalesced
// follower against its leader included), and every 16th operation against
// a cold in-process solve.
func verifyRun(in *inputs, ops []opRec, results map[uint64][]byte, workers int) verdict {
	slices.SortFunc(ops, func(a, b opRec) int { return int(a.idx - b.idx) })
	v := verdict{attempted: len(ops)}
	failed := make([]bool, len(ops))
	type pair struct {
		spec int32
		hash uint64
	}
	hashes := map[int32][]uint64{}
	bySpecHash := map[pair][]int{}
	for i, op := range ops {
		if op.status != http.StatusOK {
			failed[i] = true
			v.unanswered++
			continue
		}
		key := pair{op.spec, op.hash}
		if _, seen := bySpecHash[key]; !seen {
			hashes[op.spec] = append(hashes[op.spec], op.hash)
		}
		bySpecHash[key] = append(bySpecHash[key], i)
	}

	// decoded maps each result hash to its decoded form, nil when the
	// bytes are not a result.
	decoded := map[uint64]*result{}
	for h, raw := range results {
		r := &result{}
		if json.Unmarshal(raw, r) == nil {
			decoded[h] = r
		}
	}
	pairs := make([]pair, 0, len(bySpecHash))
	for p := range bySpecHash {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return bySpecHash[pairs[i]][0] < bySpecHash[pairs[j]][0]
	})
	invClass := map[pair]string{}
	for _, p := range pairs {
		v.distinct++
		s, r := &in.specs[p.spec], decoded[p.hash]
		bad := []failure{{"decode", "the answer's result is not valid JSON of the result shape"}}
		if r != nil {
			bad = checkResult(s, r)
		} else {
			r = &result{}
		}
		if len(bad) > 0 {
			invClass[p] = classifyInvariant(s, r, bad)
			v.violations = append(v.violations, violation{kind: "invariant", spec: p.spec, class: invClass[p], detail: bad[0].msg})
			for _, i := range bySpecHash[p] {
				failed[i] = true
			}
		}
		if hs := hashes[p.spec]; len(hs) > 1 && hs[0] == p.hash {
			v.violations = append(v.violations, violation{kind: "repeat", spec: p.spec, class: "other",
				detail: fmt.Sprintf("%d distinct results for one game", len(hs))})
			for _, h := range hs {
				for _, i := range bySpecHash[pair{p.spec, h}] {
					failed[i] = true
				}
			}
		}
	}

	// Cold comparison, off the timed path: one in-process cold solve per
	// sampled game, run on the generator's cores after the server stopped.
	var sampled []int
	var games []int32
	seen := map[int32]bool{}
	for i, op := range ops {
		if op.idx%coldEvery == 0 && op.status == http.StatusOK {
			sampled = append(sampled, i)
			if !seen[op.spec] {
				seen[op.spec] = true
				games = append(games, op.spec)
			}
		}
	}
	colds := coldSolveAll(in, games, workers)
	coldBad := map[pair]bool{}
	for _, i := range sampled {
		op := ops[i]
		r := decoded[op.hash]
		if r == nil {
			continue // already failed as undecodable
		}
		v.cold++
		key := pair{op.spec, op.hash}
		bad, done := coldBad[key]
		if !done {
			s := &in.specs[op.spec]
			c := colds[op.spec]
			msgs := compareCold(r, c)
			if bad = len(msgs) > 0; bad {
				v.violations = append(v.violations, violation{kind: "cold", spec: op.spec,
					class: classifyCold(s, r, c, invClass[key]), detail: msgs[0]})
			}
			coldBad[key] = bad
		}
		failed[i] = failed[i] || bad
	}
	for _, f := range failed {
		if f {
			v.failed++
		}
	}
	return v
}
