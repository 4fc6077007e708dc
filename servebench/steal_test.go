package main

import (
	"slices"
	"testing"
)

func TestQuietSlices(t *testing.T) {
	all := func([]int) bool { return true }
	for _, c := range []struct {
		steal  []float64
		enough func([]int) bool
		want   []int
	}{
		{[]float64{0, 0, 0, 0}, all, []int{0, 1, 2, 3}},
		{[]float64{0.01, 0.005, 0.015, 0.02}, all, []int{0, 1, 2, 3}},
		{[]float64{0.3, 0, 1.2, 0, 0.1}, all, []int{1, 3, 4}},
		{[]float64{0.5, 0.1, 0.4, 0.2}, all, []int{1, 3}},
		{[]float64{0.5, 0.1, 0.4, 0.2}, func(k []int) bool { return len(k) >= 3 }, []int{1, 2, 3}},
	} {
		if got := quietSlices(c.steal, c.enough); !slices.Equal(got, c.want) {
			t.Errorf("quietSlices(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

// TestStealTrackEnds checks that end stops the sampler and leaves samples
// that read as a non-decreasing steal count.
func TestStealTrackEnds(t *testing.T) {
	st := trackSteal()
	st.end()
	st.end() // a second end returns at once
	if len(st.at) < 2 {
		t.Fatalf("%d samples, want the first and the last", len(st.at))
	}
	if d := st.cum(st.at[len(st.at)-1]) - st.cum(st.at[0]); d < 0 {
		t.Fatalf("steal went down by %v s", -d)
	}
}
