package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// StartHealth runs the active health checker until ctx is cancelled:
// every HealthInterval (default 1s) each replica's /readyz is probed
// concurrently. The checker is what lets a recovered replica rejoin
// the pool even when affinity sends it no organic traffic — a
// successful probe closes a half-open breaker — and what demotes a
// saturated or draining replica before a single request sheds on it.
func (rt *Router) StartHealth(ctx context.Context) {
	interval := rt.opts.HealthInterval
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		rt.ProbeNow(ctx)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.ProbeNow(ctx)
			}
		}
	}()
}

// ProbeNow probes every replica once, concurrently, and returns when
// all probes finish. Exported so tests (and the checker loop) drive
// probe rounds deterministically.
func (rt *Router) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe asks one replica "can you take new work?". Outcomes:
//
//   - transport error / timeout: the process is unreachable — dead for
//     ranking purposes, and the breaker counts a failure so a flapping
//     replica opens it without burning client requests.
//   - /readyz 200: alive and ready; a half-open breaker closes (the
//     probe is the half-open trial).
//   - /readyz 503 (draining, saturated): alive but demoted to the
//     fallback tier; the breaker is untouched — this is flow control,
//     not failure.
func (rt *Router) probe(ctx context.Context, rep *Replica) {
	if rt.opts.HealthTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.opts.HealthTimeout)
		defer cancel()
	}
	err := failpoint.Inject(ctx, FailpointHealth)
	var resp *http.Response
	if err == nil {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, rep.url.String()+"/readyz", nil)
		if err != nil {
			return
		}
		resp, err = rt.client.Do(req)
	}
	if err != nil {
		wasAlive := rep.alive.Swap(false)
		rep.ready.Store(false)
		rt.noteFailure(ctx, rep, true)
		if wasAlive {
			rt.log.Warn("replica unreachable", slog.String("replica", rep.Name), slog.Any("err", err))
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()                                     //nolint:errcheck

	wasAlive := rep.alive.Swap(true)
	ready := resp.StatusCode == http.StatusOK
	wasReady := rep.ready.Swap(ready)
	if ready {
		rep.breaker.ProbeSuccess()
	}
	if !wasAlive || wasReady != ready {
		rt.log.Info("replica state",
			slog.String("replica", rep.Name),
			slog.Bool("ready", ready),
			slog.String("breaker", rep.BreakerState().String()),
			slog.String("readyz", fmt.Sprint(resp.StatusCode)),
		)
	}
}
