package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/seda"
)

// Middleware is the per-route HTTP middleware both processes run: the
// replica (API.Handler) and the router in front of it
// (cluster.Router.Handler). It lives here rather than in internal/obs
// because obs is linked into the CLIs, which must stay free of
// net/http (their process start is on the measured path).
type Middleware struct {
	Requests *obs.Counter      // every request, counted on arrival
	Panics   *obs.Counter      // handler panics recovered
	Duration *obs.HistogramVec // request latency by route pattern
	Log      *slog.Logger      // access and panic lines
}

// Wrap returns h behind the middleware. It counts the request, keeps
// the caller's X-Request-Id (or mints one) and carries it on the
// response, on r.Header (so router attempts forward it upstream) and
// in the context (obs.WithRequestID), restricts the route to GET/HEAD,
// observes the latency under the explicit route pattern (never the raw
// path — label cardinality stays bounded), and writes one structured
// access line. A handler panic becomes a 500 naming the request ID and
// is counted, so one poisoned request cannot take the process down.
// http.ErrAbortHandler is re-panicked: it is net/http's own "abort
// this response" signal, not a defect.
func (m *Middleware) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.Requests.Inc()
		start := time.Now()
		rid := requestID(r)
		w.Header().Set("X-Request-Id", rid)
		r.Header.Set("X-Request-Id", rid)
		r = r.WithContext(obs.WithRequestID(r.Context(), rid))
		aw := &accessWriter{ResponseWriter: w}

		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel identity, per net/http docs
					panic(rec)
				}
				m.Panics.Inc()
				m.Log.LogAttrs(context.Background(), slog.LevelError, "handler panic",
					slog.String("id", rid),
					slog.String("route", route),
					slog.Any("panic", rec),
				)
				// Best-effort: a no-op on the status line if the handler
				// already wrote, but it still ends the response.
				http.Error(aw, fmt.Sprintf("internal error (request %s)", rid), http.StatusInternalServerError)
			}
			d := time.Since(start)
			m.Duration.With(route).Observe(d.Seconds())
			m.Log.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("id", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.RequestURI()),
				slog.String("route", route),
				slog.Int("status", aw.status),
				slog.Int("bytes", aw.bytes),
				slog.Duration("duration", d),
			)
		}()
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			aw.Header().Set("Allow", "GET, HEAD")
			http.Error(aw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(aw, r)
	}
}

// requestID keeps a caller-provided correlation ID or mints a fresh
// 16-hex-digit one, so one ID ties together the router access line,
// the replica access line, and any error body across the hop.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a request over; a
		// constant ID still tags the logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// accessWriter observes the status and size of a response on its way
// to the client, for the access line.
type accessWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (aw *accessWriter) WriteHeader(code int) {
	if aw.status != 0 {
		return
	}
	aw.status = code
	aw.ResponseWriter.WriteHeader(code)
}

func (aw *accessWriter) Write(p []byte) (int, error) {
	if aw.status == 0 {
		aw.WriteHeader(http.StatusOK)
	}
	n, err := aw.ResponseWriter.Write(p)
	aw.bytes += n
	return n, err
}

// ResponseBuffer is an http.ResponseWriter that holds a whole
// response — header, status and body — in memory until CopyTo sends
// it on. Timing mode uses it to stamp X-Seda-Timing once the handler
// has finished (headers cannot follow the body on the wire), and the
// router's stale tier uses it to judge the degraded answer before any
// byte reaches the client. The zero value is ready to use.
type ResponseBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *ResponseBuffer) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *ResponseBuffer) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *ResponseBuffer) Write(p []byte) (int, error) {
	return b.body.Write(p)
}

// Status is the buffered status; 200 when the handler set none.
func (b *ResponseBuffer) Status() int {
	if b.status == 0 {
		return http.StatusOK
	}
	return b.status
}

// CopyTo sends the buffered response to w: header fields (merged over
// what w already carries), status line, then body.
func (b *ResponseBuffer) CopyTo(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	w.WriteHeader(b.Status())
	if b.body.Len() > 0 {
		w.Write(b.body.Bytes()) //nolint:errcheck // client gone mid-stream
	}
}

// WriteJSON answers with v as indented JSON under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-stream
}

// RegisterBuildInfo registers the constant-1 seda_build_info gauge
// whose labels carry the build identity.
func RegisterBuildInfo(r *obs.Registry, build obs.Build) {
	r.Gauge("seda_build_info",
		"build identity; always 1, the labels carry the information",
		obs.Label{Name: "go_version", Value: build.GoVersion},
		obs.Label{Name: "module_version", Value: build.ModuleVersion},
		obs.Label{Name: "revision", Value: build.Revision},
		obs.Label{Name: "pipeline", Value: seda.PipelineVersion},
	).Set(1)
}
