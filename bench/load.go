package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/tensor"
)

// sample is one request as the load generator saw it. Times are
// offsets from the start of its phase.
type sample struct {
	due     time.Duration // when it was scheduled to be sent (its send time in a closed loop)
	sent    time.Duration // when a connection took it
	end     time.Duration // when the checked response was in hand
	correct bool
}

// latency is timed from the due time, so a request that waited for a
// connection behind a stalled one is charged the wait.
func (s sample) latency() time.Duration { return s.end - s.due }

// closedLoop runs conns senders for dur, each sending its next request
// as soon as the last completed. send(i) performs the i-th request and
// reports whether the response was correct.
func closedLoop(conns int, dur time.Duration, send func(i int) bool) []sample {
	var next atomic.Int64
	perConn := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if t0 >= dur {
					return
				}
				ok := send(int(next.Add(1) - 1))
				perConn[c] = append(perConn[c], sample{due: t0, sent: t0, end: time.Since(start), correct: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(perConn)
}

// openLoop sends one request per entry of due (ascending offsets from
// now) over conns senders. A sender takes the next entry, sleeps until
// it is due, and sends; when every sender is busy past an entry's due
// time the entry goes out late, and its latency still counts from the
// due time.
func openLoop(conns int, due []time.Duration, send func(i int) bool) []sample {
	var next atomic.Int64
	perConn := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := send(i)
				perConn[c] = append(perConn[c], sample{due: due[i], sent: sent, end: time.Since(start), correct: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(perConn)
}

func flatten(perConn [][]sample) []sample {
	var all []sample
	for _, s := range perConn {
		all = append(all, s...)
	}
	return all
}

// phaseStats condenses one phase's samples.
type phaseStats struct {
	attempted, ok int
	withinSLA     int             // correct and no later than the SLA
	latenciesMS   []float64       // sorted, correct responses only
	ends          []time.Duration // completion offsets of correct responses
	lagP99MS      float64         // how late the generator sent, 99th percentile
}

func summarize(samples []sample, sla time.Duration) phaseStats {
	st := phaseStats{attempted: len(samples)}
	lags := make([]float64, 0, len(samples))
	for _, s := range samples {
		lags = append(lags, float64(s.sent-s.due)/1e6)
		if !s.correct {
			continue
		}
		st.ok++
		st.latenciesMS = append(st.latenciesMS, float64(s.latency())/1e6)
		st.ends = append(st.ends, s.end)
		if s.latency() <= sla {
			st.withinSLA++
		}
	}
	st.latenciesMS = sortedCopy(st.latenciesMS)
	st.lagP99MS = percentile(sortedCopy(lags), 99)
	return st
}

// slaOKFrac is the share of the requests sent that came back correct
// within the SLA.
func (st phaseStats) slaOKFrac() float64 {
	return float64(st.withinSLA) / float64(max(st.attempted, 1))
}

// String renders the counts printed for every phase.
func (st phaseStats) String() string {
	n := len(st.latenciesMS)
	return fmt.Sprintf("ops_attempted=%d ops_ok=%d ops_failed=%d latency_samples=%d p50=%.3fms p%g=%.3fms (p%g supported) gen_lag_p99=%.3fms",
		st.attempted, st.ok, st.attempted-st.ok, n, percentile(st.latenciesMS, 50), float64(tailPct), percentile(st.latenciesMS, tailPct), tailPercentile(n), st.lagP99MS)
}

// sliceMedians cuts a phase into n slices of length each, by due time,
// and returns the median latency of every slice that has correct
// responses.
func sliceMedians(samples []sample, length time.Duration, n int) []float64 {
	perSlice := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.due / length); s.correct && i < n {
			perSlice[i] = append(perSlice[i], float64(s.latency())/1e6)
		}
	}
	var p50s []float64
	for _, l := range perSlice {
		if len(l) > 0 {
			p50s = append(p50s, median(l))
		}
	}
	return p50s
}

// ranker sends generated requests to one server and checks every
// response.
type ranker struct {
	url    string
	client *http.Client
	pool   []request
	items  int
	rtol   float64
	atol   float64

	mu       sync.Mutex
	firstErr error
}

func newRanker(baseURL string, conns int, pool []request, items int, gemmK int) *ranker {
	rtol, atol := tensor.GemmTol(gemmK)
	return &ranker{
		url: baseURL + "/rank",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		pool: pool, items: items, rtol: rtol, atol: atol,
	}
}

// send posts the i-th request (the pool is cycled) and reports whether
// the response was correct, keeping the first failure for the report.
func (r *ranker) send(i int) bool {
	req := &r.pool[i%len(r.pool)]
	err := r.rank(req)
	if err != nil {
		r.mu.Lock()
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("request %d: %w", i, err)
		}
		r.mu.Unlock()
	}
	return err == nil
}

func (r *ranker) rank(req *request) error {
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var out struct {
		CTR []float32 `json:"ctr"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return checkScores(out.CTR, r.items, req.want, r.rtol, r.atol)
}

// checkScores is the correctness oracle: one finite score in (0,1) per
// item, and agreement with the in-process twin where want is set.
func checkScores(got []float32, items int, want []float32, rtol, atol float64) error {
	if len(got) != items {
		return fmt.Errorf("%d scores for %d items", len(got), items)
	}
	for i, v := range got {
		if f := float64(v); math.IsNaN(f) || f <= 0 || f >= 1 {
			return fmt.Errorf("score %d is %v, outside (0,1)", i, v)
		}
	}
	if want != nil && !tensor.FloatsClose(got, want, rtol, atol) {
		return fmt.Errorf("scores %v differ from the twin's %v", got, want)
	}
	return nil
}

func (r *ranker) close() { r.client.CloseIdleConnections() }
