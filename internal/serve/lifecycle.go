package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// ServerConfig configures one process's HTTP listener lifecycle. Both
// seda-serve and seda-router run through it, so binding, addr-file
// publication and drain semantics stay identical across the fleet.
type ServerConfig struct {
	Addr     string // host:port; port 0 picks a free port
	AddrFile string // when non-empty, the bound address is written here

	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration

	// ShutdownGrace bounds how long Run waits for in-flight requests
	// once the context is cancelled.
	ShutdownGrace time.Duration

	// OnDrain, when non-nil, runs the moment shutdown begins — before
	// the listener closes — so the process can flip its readiness
	// surface (API.SetDraining) while it finishes in-flight work.
	OnDrain func()

	Log *slog.Logger // nil = discard
}

// Server is one bound listener plus its drain lifecycle.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	log *slog.Logger
}

// NewServer validates the config and fills defaults. Nothing binds
// until Listen.
func NewServer(cfg ServerConfig) *Server {
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return &Server{cfg: cfg, log: log}
}

// Listen binds the configured address and, when AddrFile is set,
// publishes the actual bound address (the :0 contract the CI smoke
// jobs, the benchmark and the router's fleet test rely on). It returns
// the bound address.
func (s *Server) Listen() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	bound := ln.Addr().String()
	if s.cfg.AddrFile != "" {
		if err := os.WriteFile(s.cfg.AddrFile, []byte(bound), 0o644); err != nil {
			ln.Close() //nolint:errcheck
			return "", err
		}
	}
	s.ln = ln
	s.log.Info("listening", slog.String("addr", bound))
	return bound, nil
}

// Run serves h on the bound listener until ctx is cancelled, then
// drains: OnDrain fires (readiness flips), the listener stops, and
// in-flight requests get up to ShutdownGrace to finish. A clean drain
// returns nil; a forced exit returns the shutdown error.
func (s *Server) Run(ctx context.Context, h http.Handler) error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(s.ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		if s.cfg.OnDrain != nil {
			s.cfg.OnDrain()
		}
		s.log.Info("shutting down, draining in-flight requests",
			slog.Duration("grace", s.cfg.ShutdownGrace))
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("forced exit with requests in flight: %w", err)
		}
		s.log.Info("drained")
		return nil
	}
}

// DebugHandler serves the profiling surface bound (only) to a
// -debug-addr listener: the full net/http/pprof family. It is a
// separate mux for a separate listener so the serving port never
// exposes profiling — the debug listener is opt-in and meant to stay
// on localhost.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug binds addr and serves DebugHandler on it, publishing the
// bound address to addrFile when non-empty. Best-effort surface: the
// goroutine dies with the process.
func ServeDebug(addr, addrFile string, log *slog.Logger) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close() //nolint:errcheck
			return "", err
		}
	}
	if log != nil {
		log.Info("debug listener (pprof)", slog.String("addr", bound))
	}
	srv := &http.Server{Handler: DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // best-effort surface, dies with the process
	return bound, nil
}
