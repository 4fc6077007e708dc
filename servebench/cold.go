package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dispersal"
	"dispersal/internal/speccodec"
)

// coldResult is the library's own answer for a game, solved in process
// with no warm state: the reference a served (possibly warm-started,
// cached or coalesced) result must agree with.
type coldResult struct {
	ifd      []float64
	nu, spoa float64
	err      error
}

func coldSolve(s *gameSpec) coldResult {
	spec, err := speccodec.Decode(s.canonical())
	if err != nil {
		return coldResult{err: err}
	}
	g, err := dispersal.FromSpec(spec)
	if err != nil {
		return coldResult{err: err}
	}
	a := g.Analyze()
	ctx := context.Background()
	p, nu, err := a.IFDContext(ctx)
	if err != nil {
		return coldResult{err: err}
	}
	inst, err := a.SPoAContext(ctx)
	if err != nil {
		return coldResult{err: err}
	}
	return coldResult{ifd: p, nu: nu, spoa: inst.Ratio}
}

// coldSolveAll solves the listed games on workers goroutines.
func coldSolveAll(in *inputs, games []int32, workers int) map[int32]coldResult {
	out := make([]coldResult, len(games))
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = coldSolve(&in.specs[games[i]])
			}
		}()
	}
	for i := range games {
		next <- i
	}
	close(next)
	wg.Wait()
	m := make(map[int32]coldResult, len(games))
	for i, g := range games {
		m[g] = out[i]
	}
	return m
}

// compareCold applies the warm-versus-cold bounds of the ifd and spoa
// tests: |dnu|/(1+|nu|) <= 1e-9, max |dp| <= 1e-6, |dspoa|/(1+spoa) <= 1e-9.
func compareCold(r *result, c coldResult) []string {
	if c.err != nil {
		return []string{fmt.Sprintf("cold solve failed: %v", c.err)}
	}
	var bad []string
	if d := math.Abs(r.Nu-c.nu) / (1 + math.Abs(c.nu)); d > 1e-9 {
		bad = append(bad, fmt.Sprintf("cold: nu %v, cold %v", r.Nu, c.nu))
	}
	if len(r.IFD) != len(c.ifd) {
		bad = append(bad, fmt.Sprintf("cold: ifd length %d, cold %d", len(r.IFD), len(c.ifd)))
	} else {
		worst := 0.0
		for x := range c.ifd {
			worst = math.Max(worst, math.Abs(r.IFD[x]-c.ifd[x]))
		}
		if worst > 1e-6 {
			bad = append(bad, fmt.Sprintf("cold: ifd differs by %v", worst))
		}
	}
	if d := math.Abs(r.SPoA-c.spoa) / (1 + c.spoa); d > 1e-9 {
		bad = append(bad, fmt.Sprintf("cold: spoa %v, cold %v", r.SPoA, c.spoa))
	}
	return bad
}
