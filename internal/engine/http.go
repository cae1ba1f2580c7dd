package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"recsys/internal/model"
	"recsys/internal/shard"
	"recsys/internal/tensor"
)

// HTTP front-end: JSON ranking endpoints over the multi-model engine,
// so trained checkpoints can be served as a network service.
//
//	POST /rank            {"dense": [[...]], "sparse_ids": [[...], ...]}
//	                   →  {"ctr": [...]}        (default model)
//	POST /rank/{model}    same body, routed to a named model
//	GET  /stats           aggregate counters + per-model breakdown
//	GET  /stats/{model}   one model's counters
//	GET  /metrics         Prometheus text exposition (metrics.go)
//	GET  /trace/{model}   retained request traces (Options.TraceRing)
//	GET  /models          registered model names
//	GET  /healthz         liveness
//
// The request's batch size is inferred from the dense rows (or, for
// models without a dense path, from the first table's ID count).

// RankRequest is the JSON body of POST /rank and POST /rank/{model}:
// the schema clients marshal. The server does not unmarshal into it;
// RankDecoder (ingest.go) parses the same shape in place, and the
// tests hold that parser to encoding/json's reading of this type.
type RankRequest struct {
	// Dense holds batch rows of continuous features; omit for models
	// without a dense path.
	Dense [][]float32 `json:"dense,omitempty"`
	// SparseIDs holds one flattened ID list per embedding table
	// (batch × lookups entries each).
	SparseIDs [][]int `json:"sparse_ids"`
}

// RankResponse is the JSON body returned by the rank endpoints.
type RankResponse struct {
	CTR []float32 `json:"ctr"`
}

// Handler returns an http.Handler exposing the engine.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rank", func(w http.ResponseWriter, r *http.Request) {
		e.handleRank(w, r, "")
	})
	mux.HandleFunc("POST /rank/{model}", func(w http.ResponseWriter, r *http.Request) {
		e.handleRank(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("GET /stats", e.handleStats)
	mux.HandleFunc("GET /stats/{model}", e.handleModelStats)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("GET /trace/{model}", e.handleTrace)
	mux.HandleFunc("GET /models", e.handleModels)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (e *Engine) handleRank(w http.ResponseWriter, r *http.Request, name string) {
	mq, err := e.lookup(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if r.ContentLength > maxBodyBytes {
		// Refused on the header alone: no pooled buffer is taken and no
		// body byte is read.
		httpError(w, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: maxBodyBytes})
		return
	}
	s := rankScratchPool.Get().(*rankScratch)
	req, in, err := e.ingest(w, r, mq, s)
	if err != nil {
		putRankScratch(s)
		httpError(w, rankStatus(err), err)
		return
	}
	ctr, err := e.rankOne(r.Context(), mq, s.scores, req, in)
	if err != nil {
		// RankInto's ownership contract: once the request's context is
		// done, a token holder may still be reading the features and
		// writing the scores, so an abandoned request leaves s to the GC.
		if r.Context().Err() == nil {
			putRankScratch(s)
		}
		httpError(w, rankStatus(err), err)
		return
	}
	s.scores = ctr
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; headers are already sent.
	_ = json.NewEncoder(w).Encode(RankResponse{CTR: ctr})
	putRankScratch(s)
}

// ingestStats is what the HTTP front-end measured on a request before
// admission; a traced request carries it into its obs.Trace.
type ingestStats struct {
	decodeUS  float64
	bodyBytes int
}

// ingest reads r's body into s and decodes it against mq's model. The
// returned request aliases s. The decode is timed only when mq traces
// requests.
func (e *Engine) ingest(w http.ResponseWriter, r *http.Request, mq *modelQueue, s *rankScratch) (model.Request, ingestStats, error) {
	s.body.Reset()
	if n := min(r.ContentLength, maxBodyPresize); n > 0 {
		// Sized once: ReadFrom wants MinRead spare bytes before each read.
		s.body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := s.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = fmt.Errorf("%w: reading request body: %v", ErrBadRequest, err)
		}
		return model.Request{}, ingestStats{}, err
	}
	body := s.body.Bytes()
	in := ingestStats{bodyBytes: len(body)}
	cfg := mq.published.Load().model.Config
	var begin time.Time
	if mq.ring != nil {
		begin = e.now()
	}
	batch, dense, sparse, err := s.dec.Decode(cfg, body)
	if err != nil {
		return model.Request{}, ingestStats{}, err
	}
	req := model.Request{Batch: batch, SparseIDs: sparse}
	if cfg.DenseIn > 0 {
		req.Dense = tensor.FromSlice(dense, batch, cfg.DenseIn)
	}
	if mq.ring != nil {
		in.decodeUS = float64(e.now().Sub(begin)) / 1e3
	}
	return req, in, nil
}

// statsJSON flattens one Stats snapshot for the JSON endpoints.
func statsJSON(st Stats) map[string]any {
	out := map[string]any{
		"requests":  st.Requests,
		"samples":   st.Samples,
		"batches":   st.Batches,
		"errors":    st.Errors,
		"rejected":  st.Rejected,
		"sheds":     st.Sheds,
		"splits":    st.Splits,
		"avg_batch": st.AvgBatch(),
		"p50_us":    st.P50US,
		"p95_us":    st.P95US,
		"p99_us":    st.P99US,
	}
	if len(st.BatchHist) > 0 {
		out["batch_hist"] = st.BatchHist
	}
	if len(st.Cuts) > 0 {
		out["batch_cuts"] = st.Cuts
	}
	if len(st.KindUS) > 0 {
		out["kind_us"] = st.KindUS
	}
	if len(st.EmbCache) > 0 {
		out["emb_cache"] = st.EmbCache
	}
	return out
}

// handleStats reports the aggregate engine counters at the top level
// (the original single-model schema) plus a per-model breakdown.
func (e *Engine) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out := statsJSON(e.AggregateStats())
	models := make(map[string]any)
	for name, st := range e.Stats() {
		models[name] = statsJSON(st)
	}
	out["models"] = models
	json.NewEncoder(w).Encode(out)
}

func (e *Engine) handleModelStats(w http.ResponseWriter, r *http.Request) {
	st, err := e.ModelStats(r.PathValue("model"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsJSON(st))
}

// handleMetrics serves the Prometheus text exposition (metrics.go).
func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteMetrics(w)
}

// handleTrace dumps one model's retained request traces. With tracing
// disabled (Options.TraceRing == 0) the dump reports Enabled:false and
// empty trace lists rather than an error, so scrapers need no config
// knowledge.
func (e *Engine) handleTrace(w http.ResponseWriter, r *http.Request) {
	d, err := e.Traces(r.PathValue("model"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d)
}

func (e *Engine) handleModels(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"models":  e.Models(),
		"default": e.DefaultModel(),
	})
}

// rankStatus maps the engine's error taxonomy to HTTP status codes
// (the table in README.md):
//
//	ErrBadRequest           → 400 client sent a malformed request
//	*http.MaxBytesError     → 413 body larger than maxBodyBytes
//	context deadline/cancel → 408 request shed or abandoned in time
//	ErrModelNotFound        → 404 unknown model
//	ErrClosed               → 503 engine shutting down
//	shard.ErrUnavailable    → 503 remote embedding tier unreachable
//	ErrInference, others    → 500 internal fault (recovered panic)
func rankStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's deadline lapsed (shed before dispatch, or
		// overran mid-queue) or the client went away.
		return http.StatusRequestTimeout
	case errors.Is(err, ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, shard.ErrUnavailable):
		// A dead embedding shard is a dependency outage, not an
		// internal fault: retryable against a recovered tier.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
