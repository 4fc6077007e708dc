package main

import (
	"math"
	"math/rand/v2"
	"strings"
)

// unit is one request of a workload: its body and the games its
// operations answer, in the order the response answers them. An analyze
// request is one operation, a sweep one per item, a trajectory stream one
// per frame line.
type unit struct {
	body  []byte
	specs []int32
	// first is the run-wide index of the unit's first operation; indices
	// are fixed by the generator, so "every 16th operation" names the same
	// operations on every run of a seed.
	first int32
}

// round is one trajectory round: the stream each of the two connections
// sends. In a coalesced round both are the same stream.
type round [2]unit

// inputs is everything a run sends, generated from the seed before the
// server boots.
type inputs struct {
	specs []gameSpec
	// prefill is sent once after each boot and counts toward setup_s.
	prefill []unit
	// closed and open are the two timed phases (analyze and sweep).
	closed, open []unit
	// closedRounds and openRounds are the timed phases of trajectory-drift.
	closedRounds, openRounds []round
	// ops is the number of operations over both timed phases.
	ops int
}

// generator assigns spec and operation indices while a workload's inputs
// are built.
type generator struct {
	rng *rand.Rand
	in  inputs
}

func (g *generator) spec(s gameSpec) int32 {
	g.in.specs = append(g.in.specs, s)
	return int32(len(g.in.specs) - 1)
}

// unit registers a timed unit answering specs.
func (g *generator) unit(body []byte, specs ...int32) unit {
	u := unit{body: body, specs: specs, first: int32(g.in.ops)}
	g.in.ops += len(specs)
	return u
}

// hitSlots is the (m, k) mix of analyze-hit's 256 games, in popularity
// order: game i takes slot i mod 64 and is the i-th most requested, so
// every seed offers the same mix of answer sizes and only landscapes,
// policy parameters and spellings differ. Every combination of m in
// {8, 32, 128} and k in {4, 16, 48} appears among the nine most popular;
// large games are rarer overall so that the set-up's 256 solves stay near
// two seconds on two cores.
var hitSlots = func() [][2]int {
	var out [][2]int
	counts := []struct{ m, k, n int }{
		{8, 4, 14}, {32, 4, 12}, {128, 4, 10},
		{8, 16, 10}, {32, 16, 8}, {128, 16, 4},
		{8, 48, 3}, {32, 48, 2}, {128, 48, 1},
	}
	for len(out) < 64 {
		for i := range counts {
			if counts[i].n > 0 {
				out = append(out, [2]int{counts[i].m, counts[i].k})
				counts[i].n--
			}
		}
	}
	return out
}()

const (
	hitSpecs    = 256
	hitSpelling = 16
)

// genAnalyzeHit builds analyze-hit: 256 distinct games solved by the
// set-up, then requests drawn by Zipf popularity, each one of 16 spellings
// of its game.
func genAnalyzeHit(seed uint64, nClosed, nOpen int) inputs {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x616e616c797a6531))}
	bodies := make([][][]byte, hitSpecs)
	for i := range hitSpecs {
		mk := hitSlots[i%len(hitSlots)]
		s := gameSpec{
			Values: landscape(g.rng, mk[0], i%2 == 1),
			K:      mk[1],
			Policy: policyAt(policies[(i+i/len(hitSlots))%len(policies)], i/len(policies)),
		}
		id := g.spec(s)
		g.in.prefill = append(g.in.prefill, unit{body: s.canonical(), specs: []int32{id}})
		for range hitSpelling {
			bodies[i] = append(bodies[i], s.spelled(g.rng))
		}
	}
	zipf := rand.NewZipf(g.rng, 1.1, 1, hitSpecs-1)
	draw := func() unit {
		id := zipf.Uint64()
		return g.unit(bodies[id][g.rng.IntN(hitSpelling)], int32(id))
	}
	for range nClosed {
		g.in.closed = append(g.in.closed, draw())
	}
	for range nOpen {
		g.in.open = append(g.in.open, draw())
	}
	return g.in
}

// missSizes are analyze-miss's six size classes of (m, k). Together they
// span m from 8 to 64 and k from 2 to 48, but m and k are paired so that
// every game takes a comparable solve (m*k from 128 to 576): with the full
// m-by-k grid a few 64-site, 48-player games set the whole tail, and p95
// latency moved by a fifth between runs of one seed.
var missSizes = [6][3][2]int{
	{{8, 48}, {8, 32}, {12, 32}},
	{{12, 24}, {16, 24}, {16, 16}},
	{{24, 16}, {24, 12}, {32, 12}},
	{{32, 8}, {32, 16}, {48, 8}},
	{{48, 6}, {48, 4}, {64, 6}},
	{{64, 4}, {64, 2}, {24, 24}},
}

// missParentLag is how many operations back a perturbed game's parent is.
const missParentLag = 73

// genAnalyzeMiss builds analyze-miss: no game repeats. Even operations are
// fresh games; odd ones perturb the fresh landscape sent 73 operations
// earlier by up to 1% inside its locality bucket, so the server holds a
// warm seed for it. That is two blocks back: far enough that the parent has
// been answered whatever the timing, so whether a game is solved warm does
// not depend on the run. Every fresh game gets one child, so the perturbed
// games have the same mix as the fresh ones on every seed.
func genAnalyzeMiss(seed uint64, nClosed, nOpen int) inputs {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x616e616c797a6532))}
	total := nClosed + nOpen
	ids := make([]int32, total)
	var perm []int
	fresh := 0
	for i := range total {
		var s gameSpec
		if i%2 == 1 && i >= missParentLag {
			parent := g.in.specs[ids[i-missParentLag]]
			s = gameSpec{Values: perturbInBucket(g.rng, parent.Values, 0.01), K: parent.K, Policy: parent.Policy}
		} else {
			// Each block of 36 fresh games pairs every size class with every
			// policy once, in a shuffled order.
			if fresh%36 == 0 {
				perm = g.rng.Perm(36)
			}
			c, block := perm[fresh%36], fresh/36
			size, pol := c/6, c%6
			mk := missSizes[size][(block+pol)%3]
			s = gameSpec{
				Values: landscape(g.rng, mk[0], (c+block)%2 == 1),
				K:      mk[1],
				Policy: policyAt(policies[pol], size+block),
			}
			fresh++
		}
		ids[i] = g.spec(s)
		u := g.unit(s.canonical(), ids[i])
		if i < nClosed {
			g.in.closed = append(g.in.closed, u)
		} else {
			g.in.open = append(g.in.open, u)
		}
	}
	return g.in
}

const (
	trajFrames = 32
	trajM      = 32
	trajK      = 48
	trajDrift  = 0.015
)

// trajPolicies rotate per round; with coalescing on even rounds, a cycle
// of trajCycle rounds covers every (policy, coalesced) pair once.
var trajPolicies = []policySpec{{Name: "sharing"}, {Name: "powerlaw", Param: 2}, {Name: "exclusive"}}

const trajCycle = 6

// genTrajectory builds trajectory-drift: rounds of 32-frame streams on
// fresh landscapes, each a geometric ladder (ratio 0.9, the paperbench
// -trajectory base) with every site jittered by up to 2%. Even rounds send
// one stream on both connections (the server coalesces them); odd rounds
// send two distinct streams.
func genTrajectory(seed uint64, nClosed, nOpen int) inputs {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x7472616a6563746f))}
	stream := func(pol policySpec) unit {
		base := jitteredGeometric(g.rng, trajM, 0.9, 0.02)
		phase := 2 * math.Pi * g.rng.Float64()
		spec := gameSpec{Values: base, K: trajK, Policy: pol}
		var b strings.Builder
		b.WriteString(`{"spec":`)
		b.Write(spec.canonical())
		b.WriteString(`,"frames":[`)
		ids := make([]int32, trajFrames)
		for t := range trajFrames {
			fr := drifted(base, t+1, trajDrift, phase)
			if t > 0 {
				b.WriteByte(',')
			}
			floatsJSON(&b, fr)
			ids[t] = g.spec(gameSpec{Values: fr, K: trajK, Policy: pol})
		}
		b.WriteString("]}")
		return g.unit([]byte(b.String()), ids...)
	}
	// The closed phase runs whole cycles: its throughput is a median over
	// them.
	nClosed = (nClosed + trajCycle - 1) / trajCycle * trajCycle
	for r := range nClosed + nOpen {
		pol := trajPolicies[r%len(trajPolicies)]
		var rd round
		if r%2 == 0 {
			rd[0] = stream(pol)
			rd[1] = rd[0]
			rd[1].first = int32(g.in.ops)
			g.in.ops += trajFrames
		} else {
			rd[0], rd[1] = stream(pol), stream(pol)
		}
		if r < nClosed {
			g.in.closedRounds = append(g.in.closedRounds, rd)
		} else {
			g.in.openRounds = append(g.in.openRounds, rd)
		}
	}
	return g.in
}

const sweepM = 16

var (
	sweepK      = []int{2, 3, 4, 6}
	sweepDrifts = 6
)

// genSweep builds sweep-grid: each sweep is a shuffled grid over k and
// 4% drift of one fresh landscape under the sharing policy, the shape of
// the library's BenchmarkSweepDriftGrid: a geometric ladder of ratio 0.88
// with every site jittered by up to 2%.
func genSweep(seed uint64, nClosed, nOpen int) inputs {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x7377656570677264))}
	for u := range nClosed + nOpen {
		base := jitteredGeometric(g.rng, sweepM, 0.88, 0.02)
		phase := 2 * math.Pi * g.rng.Float64()
		var items []gameSpec
		for _, k := range sweepK {
			for t := range sweepDrifts {
				items = append(items, gameSpec{Values: drifted(base, t, 0.04, phase), K: k, Policy: policySpec{Name: "sharing"}})
			}
		}
		g.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var b strings.Builder
		b.WriteString(`{"specs":[`)
		ids := make([]int32, len(items))
		for i := range items {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(items[i].canonical())
			ids[i] = g.spec(items[i])
		}
		b.WriteString("]}")
		un := g.unit([]byte(b.String()), ids...)
		if u < nClosed {
			g.in.closed = append(g.in.closed, un)
		} else {
			g.in.open = append(g.in.open, un)
		}
	}
	return g.in
}
