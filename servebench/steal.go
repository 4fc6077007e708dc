package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// On a virtual machine that shares its cores, the hypervisor now and then
// gives this guest's CPU time to other guests (steal). A stretch with a
// lot of steal runs the server and the generator slower for reasons that
// are not the program's. The timed windows are therefore cut into slices,
// the steal in each slice is read off /proc/stat, and the figures are taken
// from the quiet slices only. On a host without steal that is every slice.

// stealTick is how often the steal counter is sampled during the timed
// windows. /proc/stat counts in 10 ms jiffies.
const stealTick = 100 * time.Millisecond

// stealTrack samples the host's cumulative steal time while it runs.
type stealTrack struct {
	at    []time.Time
	steal []float64 // cumulative seconds
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func trackSteal() *stealTrack {
	t := &stealTrack{stop: make(chan struct{}), done: make(chan struct{})}
	t.sample()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				t.sample()
				return
			case <-tick.C:
				t.sample()
			}
		}
	}()
	return t
}

func (t *stealTrack) sample() {
	t.at = append(t.at, time.Now())
	t.steal = append(t.steal, stealSeconds())
}

// end stops the sampling; the samples may be read after it returns.
func (t *stealTrack) end() {
	t.once.Do(func() { close(t.stop) })
	<-t.done
}

// cum is the cumulative steal at x, interpolated linearly between samples.
func (t *stealTrack) cum(x time.Time) float64 {
	i := sort.Search(len(t.at), func(i int) bool { return !t.at[i].Before(x) })
	switch {
	case i == 0:
		return t.steal[0]
	case i == len(t.at):
		return t.steal[i-1]
	}
	a, b := t.at[i-1], t.at[i]
	f := float64(x.Sub(a)) / float64(max(b.Sub(a), 1))
	return t.steal[i-1] + f*(t.steal[i]-t.steal[i-1])
}

// share is the steal between a and b as a share of the CPU time of all
// cores in that stretch.
func (t *stealTrack) share(a, b time.Time) float64 {
	return (t.cum(b) - t.cum(a)) / (b.Sub(a).Seconds() * float64(runtime.NumCPU()))
}

// quietShare is the steal share below which a slice always counts as
// quiet: /proc/stat's 10 ms jiffies make smaller shares noise.
const quietShare = 0.02

// quietSlices picks the slices a figure is taken from, given each slice's
// steal share. It keeps every slice whose share is at most the median
// slice's or at most quietShare, so at least half of them and, on a quiet
// host, all of them. When enough says the kept slices are too few for the
// figure, it adds the next quietest until enough holds or none is left.
// The result is in time order.
func quietSlices(steal []float64, enough func(kept []int) bool) []int {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case steal[a] < steal[b]:
			return -1
		case steal[a] > steal[b]:
			return 1
		}
		return 0
	})
	limit := max(percentile(steal, 0.5), quietShare)
	n := 0
	for n < len(order) && (steal[order[n]] <= limit || !enough(order[:n])) {
		n++
	}
	kept := slices.Clone(order[:n])
	slices.Sort(kept)
	return kept
}
