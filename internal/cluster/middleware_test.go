package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/seda"
)

// TestMiddlewareContract holds the replica and the router to the one
// shared middleware contract: the caller's request ID is echoed (or a
// 16-hex-digit one minted), the router forwards it upstream, non-GET
// methods answer 405 with Allow, and each request lands once in the
// route's latency histogram.
func TestMiddlewareContract(t *testing.T) {
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replica := serve.NewAPI(cache, seda.DefaultSuiteOptions(), 0).Handler()
	var mu sync.Mutex
	var upstreamID string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		upstreamID = r.Header.Get("X-Request-Id")
		mu.Unlock()
		replica.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	rt, err := New(Options{Replicas: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	lastUpstream := func() string {
		mu.Lock()
		defer mu.Unlock()
		return upstreamID
	}
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)

	for _, tc := range []struct {
		name, hist string
		h          http.Handler
		forwards   bool
	}{
		{"replica", "seda_request_duration_seconds", replica, false},
		{"router", "seda_router_request_duration_seconds", rt.Handler(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweepCount := func() float64 {
				n, err := scrape(t, tc.h)[tc.hist].HistCount(map[string]string{"route": "/v1/sweep"})
				if err != nil {
					return 0 // no observation for the route yet
				}
				return n
			}
			before := sweepCount()
			rec := get(t, tc.h, sweepURL, map[string]string{"X-Request-Id": "contract-1"})
			if rec.Code != http.StatusOK {
				t.Fatalf("sweep: status %d", rec.Code)
			}
			if got := rec.Header().Get("X-Request-Id"); got != "contract-1" {
				t.Fatalf("echoed ID %q, want contract-1", got)
			}
			if tc.forwards && lastUpstream() != "contract-1" {
				t.Fatalf("upstream saw ID %q, want contract-1", lastUpstream())
			}
			if after := sweepCount(); after != before+1 {
				t.Fatalf("%s{route=/v1/sweep} count %v -> %v, want +1", tc.hist, before, after)
			}

			rec = get(t, tc.h, sweepURL, nil)
			id := rec.Header().Get("X-Request-Id")
			if !minted.MatchString(id) {
				t.Fatalf("minted ID %q, want 16 hex digits", id)
			}
			if tc.forwards && lastUpstream() != id {
				t.Fatalf("upstream saw ID %q, want the minted %q", lastUpstream(), id)
			}

			req := httptest.NewRequest(http.MethodPost, sweepURL, nil)
			post := httptest.NewRecorder()
			tc.h.ServeHTTP(post, req)
			if post.Code != http.StatusMethodNotAllowed || post.Header().Get("Allow") != "GET, HEAD" {
				t.Fatalf("POST: status %d Allow %q", post.Code, post.Header().Get("Allow"))
			}
		})
	}
}

// syncBuffer is a log sink safe for the router's attempt goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterLogLinesCarryRequestID: with every replica down and no
// degraded tier, the 503's warn line, the per-attempt lines and the
// breaker line all name the request ID the client sent, so a failed
// request can be tied to its access line.
func TestRouterLogLinesCarryRequestID(t *testing.T) {
	var logs syncBuffer
	rt, fakes := fakeFleet(t, 2, Options{
		RetryBudget:      2,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: 1,
		Log:              slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	for _, f := range fakes {
		f.set("abort", 0)
	}
	const rid = "unserved-1"
	rec := get(t, rt.Handler(), sweepURL, map[string]string{"X-Request-Id": rid})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}

	seen := map[string]int{}
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var l struct {
			Msg   string `json:"msg"`
			Level string `json:"level"`
			ID    string `json:"id"`
		}
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, raw)
		}
		if l.ID != rid {
			t.Errorf("%s line carries id %q, want %q", l.Msg, l.ID, rid)
		}
		seen[l.Msg]++
		if l.Msg == "request unserved" && l.Level != "WARN" {
			t.Errorf("request unserved logged at %s, want WARN", l.Level)
		}
	}
	if seen["request unserved"] != 1 || seen["attempt failed"] != 2 || seen["breaker opened"] != 2 || seen["request"] != 1 {
		t.Fatalf("log lines %v:\n%s", seen, logs.String())
	}
}

// TestRouterPassesTimingHeader: the router keeps no tracer of its own;
// a replica's X-Seda-Timing span tree reaches the client byte for byte.
func TestRouterPassesTimingHeader(t *testing.T) {
	const tree = `{"name":"request","ms":1.25,"spans":[{"name":"cache.get","ms":0.5}]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("debug") == "timing" {
			w.Header().Set("X-Seda-Timing", tree)
		}
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	rt, err := New(Options{Replicas: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	if got := get(t, h, sweepURL+"&debug=timing", nil).Header().Get("X-Seda-Timing"); got != tree {
		t.Fatalf("X-Seda-Timing %q, want %q", got, tree)
	}
	if got := get(t, h, sweepURL, nil).Header().Get("X-Seda-Timing"); got != "" {
		t.Fatalf("untimed request carries X-Seda-Timing %q", got)
	}
}
