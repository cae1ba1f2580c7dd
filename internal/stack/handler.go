package stack

import (
	"context"
	"net/http"
	"net/http/pprof"

	"recsys/internal/online"
)

// Handler assembles the HTTP surface: the engine's endpoints, under a
// per-request deadline when Timeout is set, joined by net/http/pprof
// when Pprof is set, and behind the A/B split when the updater
// publishes canaries.
func (s *Stack) Handler() http.Handler {
	handler := s.Engine.Handler()
	if timeout := s.cfg.Timeout; timeout > 0 {
		// Per-request SLA: the deadline rides the request context into
		// the engine, which bounds batch-forming waits by it and sheds
		// (rather than executes) work that can no longer meet it.
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			inner.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	if s.cfg.Pprof {
		// Mounted outside the deadline wrapper: profile captures run for
		// ?seconds=N and must not inherit the ranking SLA.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	if s.Updater != nil && s.Updater.Router() != nil {
		handler = abMiddleware(s.Updater.Router(), handler)
	}
	return handler
}

// abMiddleware routes bare POST /rank requests across the online
// updater's A/B arms by rewriting them to POST /rank/{arm} before the
// engine handler sees them: the canary takes its configured share of
// default-model traffic while explicit /rank/{model} requests pass
// through untouched. Every arm stays registered, so a promotion racing
// traffic fails no request.
func abMiddleware(router *online.ABRouter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && (r.URL.Path == "/rank" || r.URL.Path == "/rank/") {
			r2 := r.Clone(r.Context())
			r2.URL.Path = "/rank/" + router.Pick()
			next.ServeHTTP(w, r2)
			return
		}
		next.ServeHTTP(w, r)
	})
}
