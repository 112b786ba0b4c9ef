package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one GET the load generator sends.
type request struct {
	path string // path and query, appended to the target's base URL
	inm  string // If-None-Match value; empty sends none
}

// outcome is what happened to one request. Times are offsets from the
// start of the phase.
type outcome struct {
	i      int
	req    request
	due    time.Duration // when it was due to be sent (closed loop: when it was sent)
	start  time.Duration // when it was sent
	end    time.Duration // when the whole body had arrived
	status int
	etag   string
	digest [sha256.Size]byte
	body   []byte // kept only when the phase asks for bodies
	err    error
}

// latency is measured from the due time, so a stall delays every
// request due during it, not only the one the server was holding.
func (o *outcome) latency() time.Duration { return o.end - o.due }

// lateness is how long after its due time a request left the generator.
func (o *outcome) lateness() time.Duration { return o.start - o.due }

// phase is one stretch of load against one target. With sched set it is
// an open loop: request i is due sched[i] after the phase starts,
// whether or not earlier replies have arrived. Without it, it is a
// closed loop: each client sends its next request when its previous
// reply is complete, until limit requests were sent or dur has passed
// (a zero limit or dur sets no such bound).
type phase struct {
	base  string              // target, e.g. "http://127.0.0.1:8345"
	next  func(i int) request // the i-th request of the phase
	sched []time.Duration
	limit int
	dur   time.Duration
	keep  bool // keep response bodies
}

// newClients returns n HTTP clients that each hold one connection, so
// the load on the target never comes over more than n connections.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	return cs
}

// run drives the phase with one goroutine per client and returns the
// outcomes in request order.
func (p phase) run(ctx context.Context, clients []*http.Client) []outcome {
	return p.runFrom(ctx, clients, time.Now())
}

// runFrom is run with the phase starting at t0, the time its outcomes'
// offsets count from.
func (p phase) runFrom(ctx context.Context, clients []*http.Client, t0 time.Time) []outcome {
	var next atomic.Int64
	per := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				var due time.Duration
				if p.sched != nil {
					if i >= len(p.sched) {
						return
					}
					due = p.sched[i]
					if !sleepUntil(ctx, t0.Add(due)) {
						return
					}
				} else {
					due = time.Since(t0)
					if (p.limit > 0 && i >= p.limit) || (p.dur > 0 && due >= p.dur) {
						return
					}
				}
				o := get(ctx, clients[c], p.base, p.next(i), p.keep, t0)
				o.i, o.due = i, due
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, outs := range per {
		all = append(all, outs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func get(ctx context.Context, hc *http.Client, base string, r request, keep bool, t0 time.Time) (o outcome) {
	o = outcome{req: r, start: time.Since(t0)}
	defer func() { o.end = time.Since(t0) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+r.path, nil)
	if err != nil {
		o.err = err
		return o
	}
	if r.inm != "" {
		req.Header.Set("If-None-Match", r.inm)
	}
	resp, err := hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	h := sha256.New()
	var w io.Writer = h
	var buf bytes.Buffer
	if keep {
		w = io.MultiWriter(h, &buf)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		o.err = err
		return o
	}
	o.status, o.etag = resp.StatusCode, resp.Header.Get("ETag")
	copy(o.digest[:], h.Sum(nil))
	if keep {
		o.body = buf.Bytes()
	}
	return o
}

// poissonSchedule returns the send times of an open-loop phase: a
// Poisson process at rate per second for dur, a pure function of seed.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5eda_0001))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// phaseWall is how long a phase took: until its last reply arrived.
func phaseWall(outs []outcome) time.Duration {
	var w time.Duration
	for i := range outs {
		w = max(w, outs[i].end)
	}
	return w
}

// perSlice cuts a phase into slices of width w from its start and
// returns how many replies arrived in each whole slice before the last
// reply. The median of rates taken per slice is not moved by a stall of
// the host that lasts a few slices, as a rate over the whole phase is.
func perSlice(outs []outcome, w time.Duration) []int {
	n := int(phaseWall(outs) / w)
	counts := make([]int, n)
	for i := range outs {
		if k := int(outs[i].end / w); k < n {
			counts[k]++
		}
	}
	return counts
}

// latenciesMS returns the latencies of the outcomes in milliseconds.
func latenciesMS(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i := range outs {
		ms[i] = outs[i].latency().Seconds() * 1e3
	}
	return ms
}
