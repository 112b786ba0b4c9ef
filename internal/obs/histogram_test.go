package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"
)

// fullScale is the largest finite bound of the layout, 2^30 µs.
const fullScale = time.Duration(1<<30) * time.Microsecond

// bucketStep is the layout's resolution factor, 2^(1/8).
var bucketStep = math.Pow(2, 1.0/histSub)

// verifyHistogram observes ds into a registry histogram, round-trips it
// through WriteProm and ParseProm, and holds every exposed and
// reported number to the exact values computed from ds.
func verifyHistogram(t *testing.T, ds []time.Duration) *Histogram {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("seda_prop_seconds", "Property durations.")
	exact := make([]time.Duration, len(ds))
	var sum, top time.Duration
	for i, d := range ds {
		h.Observe(d)
		exact[i] = max(d, 0) // negative durations count as zero
		sum += exact[i]
		top = max(top, exact[i])
	}
	slices.Sort(exact)

	fam := roundTrip(t, r)["seda_prop_seconds"]
	var les []string
	for _, s := range fam.Samples {
		if s.Name != "seda_prop_seconds_bucket" {
			continue
		}
		le := s.Labels["le"]
		les = append(les, le)
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = math.Inf(1), nil
		}
		if err != nil {
			t.Fatalf("le %q: %v", le, err)
		}
		n := 0
		for _, d := range exact {
			if float64(d)/1e9 <= bound {
				n++
			}
		}
		if s.Value != float64(n) {
			t.Fatalf("bucket le=%s = %v, want the %d observations ≤ le", le, s.Value, n)
		}
	}
	var want []string
	for k := 0; k <= histOctaves; k++ {
		want = append(want, formatFloat(float64(time.Duration(1<<k)*time.Microsecond)/1e9))
	}
	want = append(want, "+Inf")
	if !slices.Equal(les, want) {
		t.Fatalf("exposed bounds %v, want le = 2^k µs for k = 0…30 and +Inf", les)
	}
	if v, err := fam.Value("seda_prop_seconds_sum", nil); err != nil || v != float64(sum)/1e9 {
		t.Fatalf("_sum = %v (err %v), want %v", v, err, float64(sum)/1e9)
	}
	if v, err := fam.HistCount(nil); err != nil || v != float64(len(ds)) {
		t.Fatalf("_count = %v (err %v), want %d", v, err, len(ds))
	}

	if h.Count() != uint64(len(ds)) || h.Sum() != sum || h.Max() != top {
		t.Fatalf("count/sum/max = %d/%s/%s, want %d/%s/%s", h.Count(), h.Sum(), h.Max(), len(ds), sum, top)
	}
	if len(ds) == 0 {
		if h.Mean() != 0 || h.Quantile(0.5) != 0 {
			t.Fatal("empty histogram must report zeros")
		}
		return h
	}
	if want := sum / time.Duration(len(ds)); h.Mean() != want {
		t.Fatalf("mean = %s, want %s", h.Mean(), want)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := max(int(math.Ceil(q*float64(len(exact)))), 1)
		truth, got := exact[rank-1], h.Quantile(q)
		switch {
		case got < truth:
			t.Fatalf("q%v = %s understates the exact %s", q, got, truth)
		case truth >= histMinBound && truth <= fullScale && float64(got) > float64(truth)*bucketStep:
			t.Fatalf("q%v = %s overstates the exact %s by more than one bucket", q, got, truth)
		case truth < histMinBound && got > histMinBound:
			t.Fatalf("q%v = %s for a sub-microsecond quantile %s", q, got, truth)
		case q == 1 && got != top:
			t.Fatalf("q1 = %s, want the exact max %s", got, top)
		}
	}
	return h
}

// TestHistogramRoundTrip is the histogram's contract as a property
// over random durations — zero, negative, exact 2^k µs bounds and
// their neighbours, and values past full scale — plus fixed cases.
func TestHistogramRoundTrip(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(18, 1))
		for trial := 0; trial < 200; trial++ {
			ds := make([]time.Duration, rng.IntN(300))
			for i := range ds {
				switch rng.IntN(6) {
				case 0:
					ds[i] = 0
				case 1:
					ds[i] = -time.Duration(rng.Int64N(int64(time.Second)))
				case 2:
					bound := time.Duration(1<<rng.IntN(histOctaves+1)) * time.Microsecond
					ds[i] = bound + time.Duration(rng.IntN(3)-1) // the bound or a neighbour
				case 3:
					ds[i] = fullScale + time.Duration(rng.Int64N(int64(48*time.Hour)))
				default: // log-uniform, 1ns .. 2·full scale
					ds[i] = time.Duration(math.Pow(2*float64(fullScale), rng.Float64()))
				}
			}
			verifyHistogram(t, ds)
		}
	})

	t.Run("QuantileBoundedError", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(1, 2))
		ds := make([]time.Duration, 10000)
		for i := range ds { // log-uniform over 10µs .. 1s: many octaves
			ds[i] = time.Duration(float64(10*time.Microsecond) * math.Pow(1e5, rng.Float64()))
		}
		verifyHistogram(t, ds)
	})

	t.Run("Mean", func(t *testing.T) {
		var ds []time.Duration
		for i := 1; i <= 100; i++ {
			ds = append(ds, time.Duration(i)*time.Millisecond)
		}
		if h := verifyHistogram(t, ds); h.Mean() != 50500*time.Microsecond {
			t.Fatalf("mean %s, want 50.5ms exactly", h.Mean())
		}
	})

	t.Run("Edges", func(t *testing.T) {
		verifyHistogram(t, nil)
		h := verifyHistogram(t, []time.Duration{-time.Second, 0, time.Nanosecond})
		if h.Quantile(0.99) > time.Microsecond {
			t.Fatalf("sub-microsecond observations land in bucket 0, got %s", h.Quantile(0.99))
		}
		// Past full scale: the overflow bucket, with the max exact and
		// quantiles capped at it.
		h = verifyHistogram(t, []time.Duration{-time.Second, 0, time.Nanosecond, 24 * time.Hour})
		if h.Max() != 24*time.Hour || h.Quantile(1) != 24*time.Hour || h.Quantile(0.99) != 24*time.Hour {
			t.Fatalf("max %s q1 %s q0.99 %s, want 24h", h.Max(), h.Quantile(1), h.Quantile(0.99))
		}
	})

	t.Run("BucketMonotonic", func(t *testing.T) {
		for i := 1; i < histBounds; i++ {
			if histBound[i] <= histBound[i-1] {
				t.Fatalf("bounds not increasing at %d: %s <= %s", i, histBound[i], histBound[i-1])
			}
		}
		for k := 0; k <= histOctaves; k++ {
			if want := time.Duration(1<<k) * time.Microsecond; histBound[k*histSub] != want {
				t.Fatalf("bound %d = %s, want 2^%d µs", k*histSub, histBound[k*histSub], k)
			}
		}
		// A duration lands in the first bucket whose bound holds it.
		for _, d := range []time.Duration{0, time.Microsecond, time.Microsecond + 1, 5 * time.Microsecond,
			time.Millisecond, 17 * time.Millisecond, time.Second, 90 * time.Second, fullScale, fullScale + 1} {
			var h Histogram
			h.Observe(d)
			i := 0
			for h.counts[i].Load() == 0 {
				i++
			}
			if i < histBounds && d > histBound[i] || i > 0 && d <= histBound[i-1] {
				t.Fatalf("%s placed in bucket %d", d, i)
			}
		}
	})
}

// TestHistogramObserveAllocs pins Observe at zero allocations.
func TestHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().Histogram("seda_alloc_seconds", "Alloc durations.")
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		d += 7919 * time.Microsecond
		h.Observe(d)
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}
