package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second)
	if !reflect.DeepEqual(a, poissonSchedule(7, 500, 2*time.Second)) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 500, 2*time.Second)) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 2s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}

	res := warmResources([]string{"let", "alex"})
	known := map[string]rep{res[0].json: {etag: `"x"`}}
	mixA, mixB := warmMix(7, 1, res, known), warmMix(7, 1, res, known)
	other := warmMix(8, 1, res, known)
	same := true
	for i := 0; i < 200; i++ {
		if mixA(i) != mixB(i) {
			t.Fatalf("request %d differs between equal seeds", i)
		}
		same = same && mixA(i) == other(i)
		s1, w1 := coldDraw(7, i)
		s2, w2 := coldDraw(7, i)
		if s1 != s2 || w1 != w2 {
			t.Fatalf("explore request %d differs between equal seeds", i)
		}
	}
	if same {
		t.Fatal("different seeds drew the same requests")
	}
}

// TestColdRequestsAreBalanced checks that serve-cold asks each workload
// for every geometry once per 180 rounds, and that a run's first few
// dozen rounds use each value of each axis equally often.
func TestColdRequestsAreBalanced(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for slot := range coldWorkloads {
			seen := make(map[string]bool)
			count := make(map[string]int)
			for k := 0; k < coldPoints; k++ {
				g := coldGeometry(seed, slot, k)
				if seen[g] {
					t.Fatalf("seed %d workload %d: geometry %s twice in 180", seed, slot, g)
				}
				seen[g] = true
				if k < 36 {
					for _, v := range strings.Split(g, ",") {
						count[v]++
					}
				}
			}
			for v, n := range count {
				axis := strings.SplitN(v, "=", 2)[0]
				if want := map[string]int{"rows": 6, "sram": 7, "channels": 18, "bw": 12}[axis]; n < want || n > want+1 {
					t.Errorf("seed %d workload %d: %s %d times in 36 rounds, want %d", seed, slot, v, n, want)
				}
			}
		}
		if coldGeometry(seed, 0, 0) == coldGeometry(seed+10, 0, 0) && coldGeometry(seed, 0, 1) == coldGeometry(seed+10, 0, 1) {
			t.Errorf("seeds %d and %d start with the same geometries", seed, seed+10)
		}
	}
	// Each round asks every workload once for a new result, then repeats
	// one of them: six misses and one hit in seven.
	asked := make(map[[2]string]bool)
	for round := 0; round < 12; round++ {
		for slot := 0; slot < coldRound; slot++ {
			spec, w := coldDraw(5, round*coldRound+slot)
			again := asked[[2]string{spec, w}]
			if again != (slot == len(coldWorkloads)) || (!again && w != coldWorkloads[slot]) {
				t.Fatalf("round %d request %d: %s %s (asked before: %v)", round, slot, spec, w, again)
			}
			asked[[2]string{spec, w}] = true
		}
	}
}

// TestStallCountsAgainstEveryRequestDueDuringIt holds the server for
// 200ms on one request. Requests due while it is held are sent late and
// answered late; their latency is timed from when they were due, so it
// includes the wait the stall imposed on them.
func TestStallCountsAgainstEveryRequestDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.URL.Query().Has("stall") {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("ok")) //nolint:errcheck
	}))
	defer srv.Close()

	sched := make([]time.Duration, 60)
	for i := range sched {
		sched[i] = time.Duration(i) * 5 * time.Millisecond
	}
	const stalled = 10
	next := func(i int) request {
		if i == stalled {
			return request{path: "/?stall"}
		}
		return request{path: "/"}
	}
	outs := phase{base: srv.URL, next: next, sched: sched}.run(context.Background(), newClients(2))
	if len(outs) != len(sched) {
		t.Fatalf("%d outcomes for %d requests", len(outs), len(sched))
	}
	stallEnd := sched[stalled] + stall
	for i := stalled + 2; sched[i] < stallEnd-20*time.Millisecond; i++ {
		o := outs[i]
		if o.err != nil || o.status != 200 {
			t.Fatalf("request %d: %v %d", i, o.err, o.status)
		}
		if want := stallEnd - o.due; o.latency() < want*9/10 {
			t.Errorf("request %d due at %v: latency %v, want at least %v of waiting for the stall", i, o.due, o.latency(), want)
		}
	}
	if late := outs[stalled+5].lateness(); late < stall/2 {
		t.Errorf("the generator reports %v of lateness during the stall", late)
	}
}

func TestPerSliceCountsWholeSlices(t *testing.T) {
	var outs []outcome
	for _, ms := range []int{500, 1200, 1700, 2900, 3100} {
		outs = append(outs, outcome{end: time.Duration(ms) * time.Millisecond})
	}
	// The slice from 3 s is cut short by the last reply and not counted.
	if got := perSlice(outs, time.Second); !reflect.DeepEqual(got, []int{1, 2, 1}) {
		t.Fatalf("perSlice = %v, want [1 2 1]", got)
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if v, err := percentile(xs, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples above", v, err)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples leaves 5 above it and must be refused")
	}
	big := make([]float64, 999)
	if _, err := percentile(big, 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 above it and must be refused")
	}
	if _, err := percentile(append(big, 0), 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
}

func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}
