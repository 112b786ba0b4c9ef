package explore

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFrontier(t *testing.T) {
	cases := []struct {
		name   string
		cost   []float64
		cycles []float64
		want   []int
	}{
		{"empty", nil, nil, nil},
		{"single", []float64{1}, []float64{1}, []int{0}},
		{"chain", []float64{1, 2, 3}, []float64{30, 20, 10}, []int{0, 1, 2}},
		{"dominated middle", []float64{1, 2, 3}, []float64{10, 20, 5}, []int{0, 2}},
		{"equal cost keeps min cycles", []float64{1, 1, 2}, []float64{5, 3, 1}, []int{1, 2}},
		{"equal cycles cheapest wins", []float64{1, 2}, []float64{5, 5}, []int{0}},
		{"exact duplicates both kept", []float64{1, 1, 2}, []float64{5, 5, 9}, []int{0, 1}},
		{"all dominated by corner", []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := frontier(tc.cost, tc.cycles)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("frontier(%v, %v) = %v, want %v", tc.cost, tc.cycles, got, tc.want)
			}
		})
	}
}

// walk runs confirmWalk with each point's exact value as the
// measurement, and returns the measured points and their frontier
// (point indices, ascending).
func walk(t *testing.T, cost, lower, exact []float64) (confirmed, front []int) {
	t.Helper()
	seen := map[int]bool{}
	confirmed, err := confirmWalk(cost, lower, func(p int) (float64, error) {
		if seen[p] {
			t.Fatalf("point %d measured twice", p)
		}
		seen[p] = true
		return exact[p], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := make([]float64, len(confirmed))
	e := make([]float64, len(confirmed))
	for j, p := range confirmed {
		c[j], e[j] = cost[p], exact[p]
	}
	for _, j := range frontier(c, e) {
		front = append(front, confirmed[j])
	}
	sort.Ints(front)
	return confirmed, front
}

// exactFrontier is frontier(cost, exact) with its indices ascending.
func exactFrontier(cost, exact []float64) []int {
	out := frontier(cost, exact)
	sort.Ints(out)
	return out
}

// walkCase is a random grid for TestConfirmWalkFindsFrontier: costs
// and exact values are drawn from small ranges so cost ties, cycle
// ties and plateaus are common, and every lower bound lies in
// [0, exact], often at exact itself.
type walkCase struct{ cost, lower, exact []float64 }

func (walkCase) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	c := walkCase{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		c.cost[i] = float64(1 + r.Intn(8))
		c.exact[i] = float64(1 + r.Intn(12))
		switch r.Intn(3) {
		case 0:
			c.lower[i] = c.exact[i]
		case 1:
			c.lower[i] = float64(r.Intn(int(c.exact[i]) + 1))
		default:
			c.lower[i] = c.exact[i] * r.Float64()
		}
	}
	return reflect.ValueOf(c)
}

// TestConfirmWalkFindsFrontier: for any costs and exact values, and
// any lower bounds at or below the exact values, the frontier of the
// points the walk measures is the frontier of the whole grid.
func TestConfirmWalkFindsFrontier(t *testing.T) {
	prop := func(c walkCase) bool {
		_, got := walk(t, c.cost, c.lower, c.exact)
		return reflect.DeepEqual(got, exactFrontier(c.cost, c.exact))
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPruneWithBoundsSound: with lower bounds at (1 - margin) of the
// true cycles, no true-frontier point may be skipped, and the walk's
// frontier is the true one.
func TestPruneWithBoundsSound(t *testing.T) {
	cost := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	truth := []float64{100, 90, 95, 40, 50, 38, 37, 36.5}
	want := exactFrontier(cost, truth)
	for _, margin := range []float64{0.05, 0.10, 0.25} {
		lower := make([]float64, len(truth))
		for i := range truth {
			lower[i] = truth[i] * (1 - margin)
		}
		if _, got := walk(t, cost, lower, truth); !reflect.DeepEqual(got, want) {
			t.Errorf("margin %.2f: frontier %v, want %v", margin, got, want)
		}
	}
}

// TestPruneWithBoundsPrunes: a point whose lower bound lies wholly
// above a cheaper point's measurement must go, or the engine would
// confirm everything.
func TestPruneWithBoundsPrunes(t *testing.T) {
	cost := []float64{1, 2, 3}
	lower := []float64{90, 900, 89}
	exact := []float64{100, 1000, 95}
	confirmed, _ := walk(t, cost, lower, exact)
	if want := []int{0, 2}; !reflect.DeepEqual(confirmed, want) {
		t.Errorf("confirmed %v, want %v (point 1 is 10x worse than a cheaper point)", confirmed, want)
	}
}

// TestPruneCollapsesPlateaus: points with identical exact values
// (lower == exact) at increasing cost are a saturated plateau; only
// the cheapest is measured, because a strictly cheaper never-slower
// point dominates even on a cycle tie.
func TestPruneCollapsesPlateaus(t *testing.T) {
	cost := []float64{1, 2, 3, 4}
	flat := []float64{50, 50, 50, 40}
	confirmed, _ := walk(t, cost, flat, flat)
	if want := []int{0, 3}; !reflect.DeepEqual(confirmed, want) {
		t.Errorf("confirmed %v, want %v", confirmed, want)
	}
}

// TestPruneExactBoundsMatchFrontierSupport: with exact lower bounds
// the walk measures exactly the frontier (dominance fully decidable).
func TestPruneExactBoundsMatchFrontierSupport(t *testing.T) {
	cost := []float64{1, 2, 3, 4}
	exact := []float64{10, 5, 6, 2}
	confirmed, _ := walk(t, cost, exact, exact)
	if want := []int{0, 1, 3}; !reflect.DeepEqual(confirmed, want) {
		t.Errorf("confirmed %v, want %v", confirmed, want)
	}
	// Equal-cost duplicates: neither proves strict dominance, both are
	// measured and both are on the frontier.
	cost = []float64{1, 1}
	exact = []float64{5, 5}
	confirmed, front := walk(t, cost, exact, exact)
	if want := []int{0, 1}; !reflect.DeepEqual(confirmed, want) || !reflect.DeepEqual(front, want) {
		t.Errorf("confirmed %v frontier %v, want both %v", confirmed, front, want)
	}
}

// TestConfirmWalkStopsOnError: a failed measurement aborts the walk
// with its error.
func TestConfirmWalkStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := confirmWalk([]float64{1, 2}, []float64{2, 1}, func(int) (float64, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("err %v after %d calls, want boom after 1", err, calls)
	}
}
