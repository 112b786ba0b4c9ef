package serve

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

func testMiddleware(logBuf *bytes.Buffer) (*Middleware, *obs.Registry) {
	reg := obs.NewRegistry()
	return &Middleware{
		Requests: reg.Counter("test_requests_total", "requests"),
		Panics:   reg.Counter("test_panics_total", "panics"),
		Duration: reg.HistogramVec("test_request_duration_seconds", "latency", "route"),
		Log:      slog.New(slog.NewJSONHandler(logBuf, nil)),
	}, reg
}

// TestMiddlewarePanicContained: a handler panic answers a 500 naming
// the request ID, bumps the panic counter, logs an error line, and
// still writes the access line; the next request is served normally.
func TestMiddlewarePanicContained(t *testing.T) {
	var logBuf bytes.Buffer
	mw, _ := testMiddleware(&logBuf)
	boom := true
	h := mw.Wrap("/boom", func(w http.ResponseWriter, _ *http.Request) {
		if boom {
			panic("poisoned request")
		}
		w.Write([]byte("ok")) //nolint:errcheck
	})

	const rid = "panic-id-1"
	rec := doReq(t, h, "/boom", map[string]string{"X-Request-Id": rid})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), rid) {
		t.Fatalf("500 body does not name the request ID:\n%s", rec.Body.String())
	}
	if got := mw.Panics.Value(); got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	var sawPanic, sawAccess bool
	for _, l := range parseLogLines(t, &logBuf) {
		switch l.Msg {
		case "handler panic":
			sawPanic = l.ID == rid && l.Level == "ERROR" && l.Route == "/boom"
		case "request":
			sawAccess = l.ID == rid && l.Status == http.StatusInternalServerError
		}
	}
	if !sawPanic || !sawAccess {
		t.Fatalf("log lines (panic=%v access=%v):\n%s", sawPanic, sawAccess, logBuf.String())
	}

	boom = false
	if rec := doReq(t, h, "/boom", nil); rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("after the panic: status %d body %q", rec.Code, rec.Body.String())
	}
	if got, want := mw.Requests.Value(), uint64(2); got != want {
		t.Fatalf("request counter %d, want %d", got, want)
	}
	if n := mw.Duration.With("/boom").Count(); n != 2 {
		t.Fatalf("route histogram count %d, want 2", n)
	}
}

// TestMiddlewareReraisesAbortHandler: http.ErrAbortHandler is
// net/http's abort signal, not a defect — it passes through uncounted.
func TestMiddlewareReraisesAbortHandler(t *testing.T) {
	var logBuf bytes.Buffer
	mw, _ := testMiddleware(&logBuf)
	h := mw.Wrap("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler { //nolint:errorlint // sentinel identity
			t.Fatalf("recovered %v, want http.ErrAbortHandler", rec)
		}
		if got := mw.Panics.Value(); got != 0 {
			t.Fatalf("abort counted as a panic: %d", got)
		}
	}()
	doReq(t, h, "/abort", nil)
	t.Fatal("ErrAbortHandler was swallowed")
}

// TestResponseBufferCopyTo: the buffer holds status, header and body
// until CopyTo, defaults to 200, and keeps the first status.
func TestResponseBufferCopyTo(t *testing.T) {
	var b ResponseBuffer
	if b.Status() != http.StatusOK {
		t.Fatalf("zero-value status %d, want 200", b.Status())
	}
	b.Header().Set("ETag", `"x"`)
	b.WriteHeader(http.StatusTeapot)
	b.WriteHeader(http.StatusOK) // superfluous, ignored
	b.Write([]byte("body"))      //nolint:errcheck
	rec := doReq(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Request-Id", "kept")
		b.CopyTo(w)
	}), "/", nil)
	if rec.Code != http.StatusTeapot || rec.Body.String() != "body" ||
		rec.Header().Get("ETag") != `"x"` || rec.Header().Get("X-Request-Id") != "kept" {
		t.Fatalf("copied response: %d %q %v", rec.Code, rec.Body.String(), rec.Header())
	}
}
