package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"dispersal/internal/site"
)

// policySpec is one congestion policy of a generated game: its wire name
// and, for the parameterized families, its single parameter.
type policySpec struct {
	Name  string
	Param float64
}

// paramName is the wire name of the policy's parameter ("" when it has
// none).
func (p policySpec) paramName() string {
	switch p.Name {
	case "twopoint":
		return "c2"
	case "powerlaw":
		return "beta"
	case "cooperative":
		return "gamma"
	case "aggressive":
		return "penalty"
	}
	return ""
}

// level returns C(l), written from the policy definitions of the paper and
// the HTTP API documentation, not taken from internal/policy: the verifier
// must not share code with the solvers it checks.
func (p policySpec) level(l int) float64 {
	if l == 1 {
		return 1
	}
	switch p.Name {
	case "exclusive":
		return 0
	case "sharing":
		return 1 / float64(l)
	case "twopoint":
		return p.Param
	case "powerlaw":
		return math.Pow(float64(l), -p.Param)
	case "cooperative":
		return math.Pow(p.Param, float64(l-1))
	case "aggressive":
		return -p.Param * float64(l-1)
	}
	panic("servebench: unknown policy " + p.Name)
}

// gameSpec is one generated game (f, k, C).
type gameSpec struct {
	Values []float64
	K      int
	Policy policySpec
}

// levels returns C(1..k).
func (s *gameSpec) levels() []float64 {
	out := make([]float64, s.K)
	for l := 1; l <= s.K; l++ {
		out[l-1] = s.Policy.level(l)
	}
	return out
}

// policies are the congestion families every analyze workload mixes.
var policies = []string{"exclusive", "sharing", "powerlaw", "twopoint", "cooperative", "aggressive"}

// policyParams are the parameters each family takes in the workloads. A
// generator picks one by a deterministic index, so every seed sends the
// same mix of policies and only the landscapes differ; the solver's cost
// depends strongly on the parameter.
var policyParams = map[string][]float64{
	"twopoint":    {-0.2, 0.2, 0.4, 0.6},
	"powerlaw":    {0.5, 1.5, 2.5},
	"cooperative": {0.6, 0.75, 0.9},
	"aggressive":  {0.2, 0.5, 1},
}

// policyAt returns the named family with its i-th parameter (mod the
// family's count).
func policyAt(name string, i int) policySpec {
	ps := policyParams[name]
	if len(ps) == 0 {
		return policySpec{Name: name}
	}
	return policySpec{name, ps[i%len(ps)]}
}

// landscape draws m site values, uniform on (0, 1] or exponential with
// mean 1, sorted non-increasing as the paper's convention requires.
func landscape(rng *rand.Rand, m int, exponential bool) []float64 {
	v := make([]float64, m)
	for i := range v {
		if exponential {
			v[i] = max(rng.ExpFloat64(), 1e-9)
		} else {
			v[i] = 1 - rng.Float64()
		}
	}
	return sortDesc(v)
}

func sortDesc(v []float64) []float64 {
	slices.SortFunc(v, func(a, b float64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	return v
}

// jitteredGeometric is a fresh landscape of the paper's geometric family:
// ratio^i scaled by a random factor within 1 +- jitter, re-sorted.
func jitteredGeometric(rng *rand.Rand, m int, ratio, jitter float64) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = math.Pow(ratio, float64(i)) * (1 + jitter*(2*rng.Float64()-1))
	}
	return sortDesc(v)
}

// drifted is site.Drifted's form with a per-stream phase: each site value
// scaled by 1 + amp*sin(t/5 + i + phase), re-sorted so the frame stays a
// valid landscape.
func drifted(base []float64, t int, amp, phase float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * (1 + amp*math.Sin(float64(t)/5+float64(i)+phase))
	}
	return sortDesc(out)
}

// perturbInBucket moves every value by up to rel (relative) while keeping
// it inside its locality bucket (round(ln v * site.LocalityGrid), the
// server's warm-cache key resolution), so the perturbed landscape is a new
// game whose locality key equals the original's.
func perturbInBucket(rng *rand.Rand, vals []float64, rel float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		lv := math.Log(v)
		b := math.Round(lv * site.LocalityGrid)
		lo, hi := (b-0.5)/site.LocalityGrid+1e-9, (b+0.5)/site.LocalityGrid-1e-9
		x := lv + math.Log1p(rel*(2*rng.Float64()-1))
		out[i] = math.Exp(min(max(x, lo), hi))
	}
	return sortDesc(out)
}

// canonical renders the spec in the server's wire form with no seed or
// tag.
func (s *gameSpec) canonical() []byte {
	var b strings.Builder
	b.WriteString(`{"values":`)
	floatsJSON(&b, s.Values)
	fmt.Fprintf(&b, `,"k":%d,"policy":%s}`, s.K, s.policyJSON(nil, 'g'))
	return []byte(b.String())
}

func (s *gameSpec) policyJSON(rng *rand.Rand, format byte) string {
	name := `"name":"` + s.Policy.Name + `"`
	pn := s.Policy.paramName()
	if pn == "" {
		return "{" + name + "}"
	}
	param := `"` + pn + `":` + strconv.FormatFloat(s.Policy.Param, format, -1, 64)
	if rng != nil && rng.IntN(2) == 0 {
		return "{" + param + "," + name + "}"
	}
	return "{" + name + "," + param + "}"
}

// spelled renders the spec the way an independent client might: fields in
// a random order, random whitespace, floats in either shortest form, and a
// random seed and tag. Every spelling decodes to the same game, and the
// server's cache key strips seed and tag, so all spellings share one
// cache entry.
func (s *gameSpec) spelled(rng *rand.Rand) []byte {
	seps := []string{"", " ", "\n", "\t", " \n  "}
	sp := func() string { return seps[rng.IntN(len(seps))] }
	format := byte('g')
	if rng.IntN(2) == 0 {
		format = 'e'
	}
	var vals strings.Builder
	vals.WriteString("[" + sp())
	for i, v := range s.Values {
		if i > 0 {
			vals.WriteString("," + sp())
		}
		vals.WriteString(strconv.FormatFloat(v, format, -1, 64))
	}
	vals.WriteString(sp() + "]")
	fields := []string{
		`"values":` + sp() + vals.String(),
		`"k":` + sp() + strconv.Itoa(s.K),
		`"policy":` + sp() + s.policyJSON(rng, format),
		`"seed":` + sp() + strconv.FormatUint(rng.Uint64()>>12+1, 10),
		`"tag":` + sp() + `"t` + strconv.FormatUint(rng.Uint64()>>40, 16) + `"`,
	}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	return []byte("{" + sp() + strings.Join(fields, ","+sp()) + sp() + "}")
}

// floatsJSON renders a landscape as a JSON array.
func floatsJSON(b *strings.Builder, v []float64) {
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	b.WriteByte(']')
}
