package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// This file is the one HTTP surface of the repo: every server — flexsim's
// -http, charsweep's -http, sweepd's coordinator and worker modes — builds
// its mux here, so the introspection endpoints have identical paths,
// content types and semantics everywhere:
//
//	/metrics  Prometheus text exposition (live gauges + sweep counters)
//	/healthz  liveness probe ("ok", text/plain)
//	/progress JSON sweep-progress view (404 when no sweep is attached)
//
// Commands contribute their own endpoints (e.g. sweepd's /api/v1/ tree)
// with WithHandler; the shared endpoints cannot be overridden or drift.

// ServerOption configures the shared mux (see WithLive, WithSweep,
// WithHandler).
type ServerOption func(*serverConfig)

type serverConfig struct {
	metrics []exposer // what /metrics renders, in option order
	sweep   *SweepProgress
	health  func(io.Writer)
	extra   []route
}

type route struct {
	pattern string
	handler http.Handler
}

// WithLive attaches live run gauges to /metrics.
func WithLive(l *Live) ServerOption {
	return func(c *serverConfig) { c.metrics = append(c.metrics, l) }
}

// WithSweep attaches sweep progress: counters on /metrics and the JSON
// view on /progress.
func WithSweep(p *SweepProgress) ServerOption {
	return func(c *serverConfig) { c.sweep, c.metrics = p, append(c.metrics, p) }
}

// WithFleet attaches fleet scheduler telemetry (flexsweep_* gauges) to
// /metrics.
func WithFleet(m *FleetMetrics) ServerOption {
	return func(c *serverConfig) { c.metrics = append(c.metrics, m) }
}

// WithHealth appends process-specific detail lines to /healthz after the
// leading "ok" (e.g. the sweep coordinator's journal path and replay
// status). Probes that only check the first line are unaffected.
func WithHealth(info func(io.Writer)) ServerOption {
	return func(c *serverConfig) { c.health = info }
}

// WithHandler mounts an additional handler on the mux (e.g. "/api/v1/").
// The shared endpoints are registered last on more specific patterns, so
// extra handlers cannot shadow them.
func WithHandler(pattern string, h http.Handler) ServerOption {
	return func(c *serverConfig) { c.extra = append(c.extra, route{pattern, h}) }
}

// NewMux builds the shared introspection mux. /metrics is one exposition
// over whatever WithLive, WithSweep and WithFleet attached, in option
// order; with none attached it is empty.
func NewMux(opts ...ServerOption) *http.ServeMux {
	var c serverConfig
	for _, o := range opts {
		o(&c)
	}
	mux := http.NewServeMux()
	for _, r := range c.extra {
		mux.Handle(r.pattern, r.handler)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if c.health != nil {
			c.health(w)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeExposition(w, c.metrics...) // a failed write is the client gone
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		if c.sweep == nil {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		c.sweep.WriteJSON(w)
	})
	return mux
}

// Server serves the shared mux over HTTP until Close. The listener binds
// synchronously (so a bad address fails fast) and handlers run on a
// background goroutine.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and starts serving the
// mux built from the options.
func Serve(addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: NewMux(opts...), ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln) // returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
