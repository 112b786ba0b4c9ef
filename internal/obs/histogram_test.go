package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fullScale is the largest finite bound of the layout, 2^30 µs.
const fullScale = time.Duration(1<<30) * time.Microsecond

// verifyHistogram observes ds into a registry histogram, round-trips it
// through WriteProm and ParseProm, and holds every bucket count, exposed
// and internal, and the sum to the exact values computed from ds.
func verifyHistogram(t *testing.T, ds []time.Duration) *Histogram {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("seda_prop_seconds", "Property durations.")
	exact := make([]time.Duration, len(ds))
	var sum time.Duration
	for i, d := range ds {
		h.Observe(d)
		exact[i] = max(d, 0) // negative durations count as zero
		sum += exact[i]
	}

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

	// Every internal bucket, the overflow one too, holds exactly the
	// observations in (previous bound, its bound].
	for i := range h.counts {
		n := 0
		for _, d := range exact {
			if inBucket(i, d) {
				n++
			}
		}
		if got := h.counts[i].Load(); got != uint64(n) {
			t.Fatalf("bucket %d holds %d observations, want %d", i, got, n)
		}
	}
	if h.Count() != uint64(len(ds)) || h.Sum() != sum {
		t.Fatalf("count/sum = %d/%s, want %d/%s", h.Count(), h.Sum(), len(ds), sum)
	}
	return h
}

// inBucket reports whether d belongs in bucket i: above the previous
// bound, at most bucket i's own, and the overflow bucket unbounded.
func inBucket(i int, d time.Duration) bool {
	return (i == 0 || d > histBound[i-1]) && (i == histBounds || d <= histBound[i])
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

	t.Run("ManyOctaves", func(t *testing.T) {
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
		// The mean a scraper derives from _sum and _count is exact.
		if h := verifyHistogram(t, ds); h.Sum()/time.Duration(h.Count()) != 50500*time.Microsecond {
			t.Fatalf("sum %s over %d observations, want a mean of 50.5ms exactly", h.Sum(), h.Count())
		}
	})

	t.Run("Edges", func(t *testing.T) {
		verifyHistogram(t, nil)
		h := verifyHistogram(t, []time.Duration{-time.Second, 0, time.Nanosecond})
		if n := h.counts[0].Load(); n != 3 {
			t.Fatalf("bucket 0 holds %d of the 3 sub-microsecond observations", n)
		}
		// Past full scale: the overflow bucket, with the sum exact.
		h = verifyHistogram(t, []time.Duration{-time.Second, 0, time.Nanosecond, 24 * time.Hour})
		if n := h.counts[histBounds].Load(); n != 1 || h.Sum() != 24*time.Hour+time.Nanosecond {
			t.Fatalf("overflow bucket %d, sum %s, want 1 and 24h1ns", n, h.Sum())
		}
	})

	t.Run("BucketMonotonic", func(t *testing.T) {
		for k := 0; k <= histOctaves; k++ {
			if want := time.Duration(1<<k) * time.Microsecond; histBound[k] != want {
				t.Fatalf("bound %d = %s, want 2^%d µs", k, histBound[k], k)
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
			if !inBucket(i, d) {
				t.Fatalf("%s placed in bucket %d", d, i)
			}
		}
	})
}

// subOctaveExposition is the exposition of the histogram layout the
// octave one replaced: 8 buckets per octave with bounds
// ⌊1µs·2^(i/8)⌋ ns, found by binary search, of which only every 8th
// (le = 2^k µs) was written.
func subOctaveExposition(name, labels string, ds []time.Duration) string {
	var bounds [histOctaves*8 + 1]time.Duration
	for i := range bounds {
		bounds[i] = time.Duration(math.Floor(float64(time.Microsecond) * math.Pow(2, float64(i)/8)))
	}
	var counts [len(bounds) + 1]uint64
	var sum time.Duration
	for _, d := range ds {
		d = max(d, 0)
		i, _ := slices.BinarySearch(bounds[:], d)
		counts[i]++
		sum += d
	}
	var b strings.Builder
	var cum uint64
	for i, n := range counts {
		cum += n
		if i < len(bounds) && i%8 == 0 {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(float64(bounds[i])/1e9)), cum)
		}
	}
	fmt.Fprintf(&b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(&b, "%s_sum%s %s\n", name, labels, formatFloat(float64(sum)/1e9))
	fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, cum)
	return b.String()
}

// TestOctaveLayoutMatchesSubOctaveExposition: for the same
// observations, the octave layout writes the same /metrics bytes as
// the 8-per-octave layout it replaced, bounds, neighbours and values
// past full scale included.
func TestOctaveLayoutMatchesSubOctaveExposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 8))
	for trial := 0; trial < 100; trial++ {
		ds := make([]time.Duration, rng.IntN(400))
		for i := range ds {
			switch rng.IntN(4) {
			case 0:
				ds[i] = time.Duration(1<<rng.IntN(histOctaves+1))*time.Microsecond + time.Duration(rng.IntN(3)-1)
			case 1:
				ds[i] = -time.Duration(rng.IntN(2000))
			default:
				ds[i] = time.Duration(math.Pow(2*float64(fullScale), rng.Float64()))
			}
		}
		var h Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		var b strings.Builder
		writeHistogram(&b, "seda_stage_duration_seconds", `{stage="protect"}`, &h)
		if want := subOctaveExposition("seda_stage_duration_seconds", `{stage="protect"}`, ds); b.String() != want {
			t.Fatalf("trial %d: octave exposition\n%s\ndiffers from the sub-octave one\n%s", trial, b.String(), want)
		}
	}
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
