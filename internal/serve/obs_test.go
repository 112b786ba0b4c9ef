package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/rescache"
)

// logLine is the shape of one slog JSON record the tests care about.
type logLine struct {
	Msg    string `json:"msg"`
	Level  string `json:"level"`
	ID     string `json:"id"`
	Route  string `json:"route"`
	Status int    `json:"status"`
}

func parseLogLines(t *testing.T, buf *bytes.Buffer) []logLine {
	t.Helper()
	var out []logLine
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, raw)
		}
		out = append(out, l)
	}
	return out
}

// TestRequestIDPropagation pins the correlation contract: for a
// failing request, the same ID appears in the response header, the
// 500 body, the panic log line, and the access log line — one grep
// connects a user report to the server's view of the request.
func TestRequestIDPropagation(t *testing.T) {
	defer failpoint.Reset()
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	sv := NewAPI(cache, 0)
	sv.Log = slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := sv.Handler()

	if err := failpoint.Enable(FailpointSweep, "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	const rid = "corr-id-12345"
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", map[string]string{"X-Request-Id": rid})

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := rec.Header().Get("X-Request-Id"); got != rid {
		t.Fatalf("X-Request-Id echo: %q, want %q", got, rid)
	}
	if !strings.Contains(rec.Body.String(), rid) {
		t.Fatalf("500 body does not name the request ID:\n%s", rec.Body.String())
	}

	lines := parseLogLines(t, &logBuf)
	var sawPanic, sawAccess bool
	for _, l := range lines {
		switch l.Msg {
		case "handler panic":
			sawPanic = true
			if l.ID != rid || l.Level != "ERROR" {
				t.Errorf("panic log line: %+v", l)
			}
		case "request":
			sawAccess = true
			if l.ID != rid || l.Status != http.StatusInternalServerError || l.Route != "/v1/sweep" {
				t.Errorf("access log line: %+v", l)
			}
		}
	}
	if !sawPanic || !sawAccess {
		t.Fatalf("missing log lines (panic=%v access=%v):\n%s", sawPanic, sawAccess, logBuf.String())
	}
}

// TestGeneratedRequestID: without a caller-supplied ID the middleware
// mints one and still echoes it.
func TestGeneratedRequestID(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/healthz", nil)
	if id := rec.Header().Get("X-Request-Id"); len(id) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex digits", id)
	}
}

// TestTimingHeader: ?debug=timing returns the span tree in
// X-Seda-Timing without perturbing the body, and the tree contains
// the pipeline stages of the sweep it measured.
func TestTimingHeader(t *testing.T) {
	h, _ := testHandler(t)
	plain := doReq(t, h, "/v1/sweep?fig=5b&workloads=let", nil)
	timed := doReq(t, h, "/v1/sweep?fig=5b&workloads=let&debug=timing", nil)
	if timed.Code != http.StatusOK {
		t.Fatalf("status %d", timed.Code)
	}
	if !bytes.Equal(plain.Body.Bytes(), timed.Body.Bytes()) {
		t.Fatal("timing mode changed the response body")
	}

	raw := timed.Header().Get("X-Seda-Timing")
	if raw == "" {
		t.Fatal("no X-Seda-Timing header")
	}
	var tree obs.SpanJSON
	if err := json.Unmarshal([]byte(raw), &tree); err != nil {
		t.Fatalf("timing header is not JSON: %v\n%s", err, raw)
	}
	if tree.Name != "request" || tree.Ms <= 0 {
		t.Fatalf("root span: %+v", tree)
	}
	var found func(sp obs.SpanJSON, name string) bool
	found = func(sp obs.SpanJSON, name string) bool {
		if sp.Name == name {
			return true
		}
		for _, c := range sp.Spans {
			if found(c, name) {
				return true
			}
		}
		return false
	}
	// The second request hits the in-memory cache, so only the get
	// span is guaranteed beneath the root.
	if !found(tree, obs.StageCacheGet) {
		t.Fatalf("timing tree missing %s:\n%s", obs.StageCacheGet, raw)
	}

	// The untimed request carries no trace header.
	if plain.Header().Get("X-Seda-Timing") != "" {
		t.Fatal("plain request unexpectedly carries X-Seda-Timing")
	}
}

// TestTimingModePanicAnswersClean500: in timing mode the body is
// buffered, so a handler panic after partial output still yields a
// clean 500 — nothing of the partial body leaks.
func TestTimingModePanicAnswersClean500(t *testing.T) {
	defer failpoint.Reset()
	h, _ := testHandler(t)
	if err := failpoint.Enable(FailpointSweep, "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf&debug=timing", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.HasPrefix(rec.Body.String(), "internal error") {
		t.Fatalf("500 body not clean:\n%s", rec.Body.String())
	}
}

// TestDebugHandlerServesPprof: the -debug-addr mux answers the pprof
// index and a concrete profile.
func TestDebugHandlerServesPprof(t *testing.T) {
	h := DebugHandler()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		rec := doReq(t, h, path, nil)
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("%s: status %d, %d bytes", path, rec.Code, rec.Body.Len())
		}
	}
}
