package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// errNoReplica means ranking produced zero candidates: every breaker
// is open (or the fleet is empty). The stale tier is next.
var errNoReplica = errors.New("every replica breaker is open")

// bufferedResp is one fully-read upstream response. Buffering before
// the first client byte is what makes mid-body replica death a
// retryable event instead of a truncated client response; evaluation
// bodies are bounded (Options.MaxBodyBytes), so the memory cost is
// too.
type bufferedResp struct {
	status  int
	header  http.Header
	body    []byte
	replica string
}

func (br *bufferedResp) writeTo(w http.ResponseWriter) {
	copyEndToEndHeaders(w.Header(), br.header)
	w.Header().Set("X-Seda-Replica", br.replica)
	w.WriteHeader(br.status)
	w.Write(br.body) //nolint:errcheck // client gone mid-stream
}

// hopByHop lists the headers that describe one connection rather than
// the resource; they must not be replayed onto the client connection.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Content-Length":      true, // recomputed by net/http for the buffered body
}

func copyEndToEndHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append([]string(nil), vs...)
	}
}

// tryCandidates drives up to RetryBudget attempts, one at a time on
// the request goroutine, against the ranked candidate list and returns
// the first success with its attempt index (0 = first choice). A
// failed attempt waits an exponential, fully-jittered backoff and
// moves to the next candidate; more attempts than candidates cycle the
// ranking again (a replica may fail one moment and answer the next —
// the budget, not the fleet size, is the invariant the client sees).
// A client that goes away during the wait gets no further attempt.
func (rt *Router) tryCandidates(r *http.Request, cands []*Replica) (*bufferedResp, int, error) {
	ctx := r.Context()
	budget := rt.opts.RetryBudget
	delay := rt.opts.BackoffBase
	for idx := 0; ; idx++ {
		rt.metrics.attempts.Inc()
		resp, err := rt.attempt(ctx, r, cands[idx%len(cands)])
		if err == nil {
			return resp, idx, nil
		}
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		rt.log.Debug("attempt failed", "id", obs.RequestID(ctx),
			"attempt", idx, "of", budget, "err", err)
		if idx+1 >= budget {
			return nil, 0, err
		}
		// Full jitter: wait uniform(0, delay], then double the ceiling
		// for the next retry up to BackoffMax.
		t := time.NewTimer(time.Duration(1 + rand.Int64N(int64(delay))))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, 0, ctx.Err()
		}
		if delay *= 2; delay > rt.opts.BackoffMax {
			delay = rt.opts.BackoffMax
		}
		rt.metrics.retries.Inc()
	}
}

// retryableStatus: upstream answers that mean "try another replica".
// 503 is flow control (saturated or draining — the replica is fine, so
// it does not feed the breaker); 502/504 mean the replica itself is in
// trouble. Everything else — including 4xx and 500 — is an
// authoritative answer for this request and passes through.
func retryableStatus(code int) (retryable, breakerFailure bool) {
	switch code {
	case http.StatusServiceUnavailable:
		return true, false
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return true, true
	}
	return false, false
}

// attempt forwards the request to one replica and buffers the full
// response. Failures are recorded against the replica's breaker when
// they indicate replica trouble (transport errors, timeouts, 502/504,
// mid-body death) but not when they are flow control (503).
func (rt *Router) attempt(ctx context.Context, r *http.Request, rep *Replica) (*bufferedResp, error) {
	if rt.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.opts.AttemptTimeout)
		defer cancel()
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)

	// The dial site models a dead (error) or slow (sleep) replica link
	// before any real network traffic.
	if err := failpoint.Inject(ctx, FailpointDial); err != nil {
		rt.noteFailure(ctx, rep, true)
		return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
	}

	u := *rep.url
	u.Path = rep.url.Path + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
	}
	// Forward the headers that select the representation or correlate
	// the request; everything connection-scoped stays behind.
	for _, k := range []string{"Accept", "If-None-Match", "X-Request-Id"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}

	resp, err := rt.client.Do(req)
	if err != nil {
		rt.noteFailure(ctx, rep, true)
		return nil, fmt.Errorf("replica %s: %w", rep.Name, err)
	}
	defer resp.Body.Close() //nolint:errcheck

	if retry, brk := retryableStatus(resp.StatusCode); retry {
		// Drain a little so the connection can be reused, then fail over.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		rt.noteFailure(ctx, rep, brk)
		return nil, fmt.Errorf("replica %s answered %d", rep.Name, resp.StatusCode)
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, rt.opts.MaxBodyBytes+1))
	if err == nil && int64(len(body)) > rt.opts.MaxBodyBytes {
		err = fmt.Errorf("body exceeds %d bytes", rt.opts.MaxBodyBytes)
	}
	if err == nil {
		// The body site models the replica dying after the status line:
		// headers arrived, the body did not.
		err = failpoint.Inject(ctx, FailpointBody)
	}
	if err != nil {
		rt.noteFailure(ctx, rep, true)
		return nil, fmt.Errorf("replica %s: mid-body: %w", rep.Name, err)
	}

	rep.alive.Store(true)
	rep.breaker.Success()
	return &bufferedResp{
		status:  resp.StatusCode,
		header:  resp.Header.Clone(),
		body:    body,
		replica: rep.Name,
	}, nil
}

// noteFailure records one failed attempt. breakerCounts distinguishes
// replica trouble (feeds the breaker, may open it) from flow control
// (does not). The log line names the request whose failure tipped the
// breaker; a health probe carries no request ID.
func (rt *Router) noteFailure(ctx context.Context, rep *Replica, breakerCounts bool) {
	if !breakerCounts {
		return
	}
	if rep.breaker.Failure() {
		rt.metrics.breakerTransitions.Inc()
		rt.log.Warn("breaker opened", "id", obs.RequestID(ctx), "replica", rep.Name)
	}
}
