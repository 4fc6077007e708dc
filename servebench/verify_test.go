package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"

	"dispersal"
	"dispersal/internal/speccodec"
)

// cleanSet is a spec set the solvers answer correctly: sharing and
// power-law policies, k <= 48, uniform landscapes.
func cleanSet(t *testing.T) ([]gameSpec, []result) {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 12))
	var specs []gameSpec
	var results []result
	for _, m := range []int{8, 16, 32} {
		for _, k := range []int{3, 8, 24, 48} {
			for _, pol := range []policySpec{{Name: "sharing"}, {Name: "powerlaw", Param: 1.5}} {
				s := gameSpec{Values: landscape(rng, m, false), K: k, Policy: pol}
				specs = append(specs, s)
				results = append(results, solveLikeServer(t, &s))
			}
		}
	}
	return specs, results
}

// solveLikeServer answers s the way dispersald does and round-trips the
// answer through its JSON wire form.
func solveLikeServer(t *testing.T, s *gameSpec) result {
	t.Helper()
	spec, err := speccodec.Decode(s.canonical())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dispersal.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Analyze()
	p, nu, err := a.IFDContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := a.SPoAContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(result{
		M: len(s.Values), K: s.K, Policy: g.Policy().Name(), IFD: p, Nu: nu,
		Optimum: inst.Optimum, OptCoverage: inst.OptCoverage, EqCoverage: inst.EqCoverage, SPoA: inst.Ratio,
	})
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVerifierAcceptsCleanSet(t *testing.T) {
	specs, results := cleanSet(t)
	for i := range specs {
		if bad := checkResult(&specs[i], &results[i]); len(bad) > 0 {
			t.Errorf("clean game %s rejected: %v", specs[i].canonical(), bad)
		}
	}
}

// TestVerifierRejectsMutations is the mutation check: each served field
// the verifier guards, moved by 1e-3 relative, must be rejected on every
// game of the clean set.
func TestVerifierRejectsMutations(t *testing.T) {
	specs, results := cleanSet(t)
	mutations := map[string]func(r *result){
		"ifd[x]": func(r *result) {
			x := 0
			for i, p := range r.IFD {
				if p > r.IFD[x] {
					x = i
				}
			}
			r.IFD[x] *= 1 + 1e-3
		},
		"nu":          func(r *result) { r.Nu *= 1 + 1e-3 },
		"eq_coverage": func(r *result) { r.EqCoverage *= 1 + 1e-3 },
		"spoa":        func(r *result) { r.SPoA *= 1 + 1e-3 },
	}
	for name, mutate := range mutations {
		for i := range specs {
			r := results[i]
			r.IFD = append([]float64(nil), r.IFD...)
			mutate(&r)
			if bad := checkResult(&specs[i], &r); len(bad) == 0 {
				t.Errorf("%s mutation accepted on %s", name, specs[i].canonical())
			}
		}
	}
}

// TestVerifierRejectsAlteredFollower alters one byte of a follower's result:
// two answers for one game must be byte-identical.
func TestVerifierRejectsAlteredFollower(t *testing.T) {
	specs, results := cleanSet(t)
	leader, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexAny(leader, "123456789")
	follower := bytes.Clone(leader)
	follower[i] = '0' + (follower[i]-'0')%9 + 1
	in := &inputs{specs: specs[:1]}
	ops := []opRec{{idx: 1, spec: 0, status: 200, hash: 1}, {idx: 2, spec: 0, status: 200, hash: 2}}
	v := verifyRun(in, ops, map[uint64][]byte{1: leader, 2: follower}, 1)
	if v.count("repeat", "") != 1 || v.failed != 2 {
		t.Fatalf("altered follower: %d repeat violations, %d failed ops; want 1 and 2", v.count("repeat", ""), v.failed)
	}

	ops[1].hash = 1
	if v = verifyRun(in, ops, map[uint64][]byte{1: leader}, 1); v.failed != 0 {
		t.Fatalf("identical follower: %d failed ops", v.failed)
	}
}

// TestVerifierFlagsDefectA pins reproducer (a) of NOTES.md: the point-mass
// IFD answer dispersald serves for this game reports the off-support payoff
// as nu.
func TestVerifierFlagsDefectA(t *testing.T) {
	s := gameSpec{Values: []float64{1, 0.3, 0.2}, K: 2, Policy: policySpec{Name: "sharing"}}
	r := result{M: 3, K: 2, Policy: "sharing", IFD: []float64{1, 0, 0}, Nu: 0.3000000000000024,
		Optimum:     []float64{0.7692307692307688, 0.23076923076923112, 0},
		OptCoverage: 1.0692307692307692, EqCoverage: 1, SPoA: 1.0692307692307692}
	bad := checkResult(&s, &r)
	if len(bad) == 0 || !strings.Contains(bad[0].msg, "equilibrium: site 1") {
		t.Fatalf("defect (a) answer: got %v", bad)
	}
	if c := classifyInvariant(&s, &r, bad); c != "a" {
		t.Fatalf("classified %q, want a", c)
	}
}

// TestVerifierClassifiesBySymptom checks that a violation counts as a known
// defect only when its failing checks are that defect's: a spoa mutation
// is "other" on a twopoint game and on a point-mass answer alike.
func TestVerifierClassifiesBySymptom(t *testing.T) {
	defectA := gameSpec{Values: []float64{1, 0.3, 0.2}, K: 2, Policy: policySpec{Name: "sharing"}}
	answerA := result{M: 3, K: 2, Policy: "sharing", IFD: []float64{1, 0, 0}, Nu: 0.3000000000000024,
		Optimum:     []float64{0.7692307692307688, 0.23076923076923112, 0},
		OptCoverage: 1.0692307692307692, EqCoverage: 1, SPoA: 1.0692307692307692}
	twopoint := gameSpec{Values: landscape(rand.New(rand.NewPCG(3, 4)), 8, false), K: 8,
		Policy: policySpec{Name: "twopoint", Param: 0.3}}
	answerTwopoint := solveLikeServer(t, &twopoint)
	for _, c := range []struct {
		name string
		s    *gameSpec
		r    result
	}{
		{"point mass", &defectA, answerA},
		{"twopoint", &twopoint, answerTwopoint},
	} {
		c.r.SPoA *= 1 + 1e-3
		bad := checkResult(c.s, &c.r)
		if len(bad) == 0 {
			t.Fatalf("%s: spoa mutation accepted", c.name)
		}
		if got := classifyInvariant(c.s, &c.r, bad); got != "other" {
			t.Errorf("%s: spoa mutation classified %q, want other (%v)", c.name, got, bad)
		}
	}
}
