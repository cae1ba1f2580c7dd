package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// postRank sends body to the test server's POST /rank and returns the
// status and the response body.
func postRank(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/rank", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// serveRank runs one POST /rank through h without a network, so the
// test owns the request's context and body reader.
func serveRank(h http.Handler, ctx context.Context, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", body).WithContext(ctx))
	return rec
}

// TestHTTPRankStatusPerMalformedClass: every way a body can be wrong is
// a 400 with the JSON error body. What the parser lets through to
// admission (ID counts and ranges) is validated there, once, and
// counted once in rejected; a body the parser refuses never reaches
// admission and is not counted. The server keeps serving afterwards.
func TestHTTPRankStatusPerMalformedClass(t *testing.T) {
	e, cfg, ts := httpServer(t) // 13 dense features; 4 tables of 80 lookups, 120 rows
	good := string(rankBody(t, cfg, 1))
	row := func(n int) string { return "[" + strings.TrimSuffix(strings.Repeat("0.5,", n), ",") + "]" }
	ids := func(n int) string { return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]" }
	tables := func(n, per int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(ids(per)+",", n), ",") + "]"
	}
	cases := map[string]string{
		"empty body":         ``,
		"not JSON":           `rank me`,
		"top-level array":    `[` + good + `]`,
		"truncated":          good[:len(good)/2],
		"trailing data":      good + `{}`,
		"unknown key":        `{"dense":[` + row(13) + `],"sparse_ids":` + tables(4, 80) + `,"extra":1}`,
		"duplicate key":      `{"dense":[` + row(13) + `],"dense":[` + row(13) + `],"sparse_ids":` + tables(4, 80) + `}`,
		"key in wrong case":  `{"Dense":[` + row(13) + `],"sparse_ids":` + tables(4, 80) + `}`,
		"escaped key":        `{"d\u0065nse":[` + row(13) + `],"sparse_ids":` + tables(4, 80) + `}`,
		"string feature":     `{"dense":[[` + strings.Repeat(`"0.5",`, 12) + `"0.5"]],"sparse_ids":` + tables(4, 80) + `}`,
		"float32 overflow":   `{"dense":[[1e39,` + strings.Repeat("0,", 11) + `0]],"sparse_ids":` + tables(4, 80) + `}`,
		"fractional ID":      `{"dense":[` + row(13) + `],"sparse_ids":[[1.0` + strings.Repeat(",1", 79) + `],` + ids(80) + `,` + ids(80) + `,` + ids(80) + `]}`,
		"missing dense":      `{"sparse_ids":` + tables(4, 80) + `}`,
		"null dense":         `{"dense":null,"sparse_ids":` + tables(4, 80) + `}`,
		"dense row too wide": `{"dense":[` + row(14) + `],"sparse_ids":` + tables(4, 80) + `}`,
		"dense row too thin": `{"dense":[` + row(12) + `],"sparse_ids":` + tables(4, 80) + `}`,
		"too many tables":    `{"dense":[` + row(13) + `],"sparse_ids":` + tables(5, 80) + `}`,
		"too few tables":     `{"dense":[` + row(13) + `],"sparse_ids":` + tables(3, 80) + `}`,
		"too few IDs":        `{"dense":[` + row(13) + `],"sparse_ids":` + tables(4, 79) + `}`,
		"ID out of range":    `{"dense":[` + row(13) + `],"sparse_ids":[[120` + strings.Repeat(",1", 79) + `],` + ids(80) + `,` + ids(80) + `,` + ids(80) + `]}`,
		"negative ID":        `{"dense":[` + row(13) + `],"sparse_ids":[[-1` + strings.Repeat(",1", 79) + `],` + ids(80) + `,` + ids(80) + `,` + ids(80) + `]}`,
	}
	// The classes admission refuses; the parser refuses the rest.
	atAdmission := map[string]bool{"too few tables": true, "too few IDs": true, "ID out of range": true, "negative ID": true}
	for name, body := range cases {
		before := defaultStats(t, e)
		code, out := postRank(t, ts.URL, strings.NewReader(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, code, out)
		}
		var msg map[string]string
		if err := json.Unmarshal(out, &msg); err != nil || msg["error"] == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", name, out)
		}
		after := defaultStats(t, e)
		var want int64
		if atAdmission[name] {
			want = 1
		}
		if after.Rejected != before.Rejected+want || after.Errors != before.Errors+want {
			t.Errorf("%s: rejected %d→%d, errors %d→%d; want +%d each", name,
				before.Rejected, after.Rejected, before.Errors, after.Errors, want)
		}
	}
	if code, out := postRank(t, ts.URL, strings.NewReader(good)); code != http.StatusOK {
		t.Fatalf("valid body after the malformed ones: status %d (%s)", code, out)
	}
	resp, err := http.Post(ts.URL+"/rank/ghost", "application/json", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}
}

// failingReader fails the test if the handler reads the body.
type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("the handler read a body it should have refused on Content-Length")
	return 0, io.EOF
}

// TestHTTPRankBodyCap pins the oversize behaviour: a Content-Length past
// the cap is a 413 before a byte is read; a body of unknown length is
// cut off at the cap with the same 413; the server keeps serving.
func TestHTTPRankBodyCap(t *testing.T) {
	e, cfg, ts := httpServer(t)
	h := e.Handler()

	req := httptest.NewRequest(http.MethodPost, "/rank", failingReader{t})
	req.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length over the cap: status %d, want 413", rec.Code)
	}
	var msg map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || msg["error"] == "" {
		t.Errorf("413 body %q is not {\"error\": ...}", rec.Body.Bytes())
	}

	// Ten megabytes of '[' over a real connection, once with a
	// Content-Length (bytes.Reader) and once chunked (an opaque reader).
	flood := bytes.Repeat([]byte("["), 10<<20)
	for name, body := range map[string]io.Reader{
		"sized":   bytes.NewReader(flood),
		"chunked": io.MultiReader(bytes.NewReader(flood)),
	} {
		if code, out := postRank(t, ts.URL, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s 10 MB body: status %d, want 413 (%s)", name, code, out)
		}
	}
	// A body of exactly the cap is read and parsed (and refused as
	// malformed, not as oversized).
	if code, _ := postRank(t, ts.URL, bytes.NewReader(flood[:maxBodyBytes])); code != http.StatusBadRequest {
		t.Errorf("body at the cap: status %d, want 400", code)
	}
	if code, out := postRank(t, ts.URL, bytes.NewReader(rankBody(t, cfg, 2))); code != http.StatusOK {
		t.Fatalf("valid body after the oversized ones: status %d (%s)", code, out)
	}
}

// stalledReader is a client that has sent its headers and then nothing:
// Read reports that it was reached and blocks until released.
type stalledReader struct{ reached, release chan struct{} }

func (r stalledReader) Read([]byte) (int, error) {
	close(r.reached)
	<-r.release
	return 0, io.EOF
}

// TestHTTPRankStalledBodyPinsLittle: a declared Content-Length buys at
// most maxBodyPresize of buffer before a body byte arrives, so a client
// that declares the full cap and stalls does not pin 8 MiB.
func TestHTTPRankStalledBodyPinsLittle(t *testing.T) {
	e, _, _ := httpServer(t)
	mq, err := e.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	body := stalledReader{reached: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/rank", body)
	req.ContentLength = maxBodyBytes
	scratch := new(rankScratch)
	done := make(chan error)
	go func() {
		_, _, err := e.ingest(httptest.NewRecorder(), req, mq, scratch)
		done <- err
	}()
	<-body.reached
	if c := scratch.body.Cap(); c == 0 || c > 2*maxBodyPresize {
		t.Errorf("stalled body with Content-Length %d holds a %d-byte buffer, want (0, %d]", maxBodyBytes, c, 2*maxBodyPresize)
	}
	close(body.release)
	if err := <-done; !errors.Is(err, ErrBadRequest) {
		t.Errorf("short body: %v, want ErrBadRequest", err)
	}
}

// TestRankScratchRetention: a scratch whose buffers a giant request
// grew past the cap is dropped rather than pooled.
func TestRankScratchRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	for name, grow := range map[string]func(*rankScratch){
		"body":  func(s *rankScratch) { s.body.Grow(maxBodyBytes + 1) },
		"dense": func(s *rankScratch) { s.dec.dense = make([]float32, 0, maxBodyBytes/4+1) },
		"ids":   func(s *rankScratch) { s.dec.ids = make([]int, 0, maxBodyBytes/8+1) },
	} {
		big := new(rankScratch)
		grow(big)
		putRankScratch(big)
		if got := rankScratchPool.Get().(*rankScratch); got == big {
			t.Errorf("%s past the cap: scratch was pooled", name)
		}
	}
	small := new(rankScratch)
	small.body.Grow(1 << 10)
	putRankScratch(small)
	if got := rankScratchPool.Get().(*rankScratch); got != small {
		t.Error("a scratch under the cap was not pooled")
	}
}

// TestHTTPRankMatchesEngineRank: a request marshalled, sent over HTTP,
// parsed in place and ranked out of pooled buffers scores bit for bit
// what Engine.Rank scores on the original request, on fp32 tables and
// on int8 tables.
func TestHTTPRankMatchesEngineRank(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	variants := map[string]func(*model.Model) *model.Model{
		"fp32": func(m *model.Model) *model.Model { return m },
		"int8": func(m *model.Model) *model.Model { return m.QuantizeTables() },
	}
	for name, quantize := range variants {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t, Options{Workers: 2, QueueDepth: 16, MaxBatch: 8, MaxWait: 100 * time.Microsecond})
			if err := e.Register(DefaultModelName, quantize(buildModel(t, cfg, 7)), ModelOptions{}); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(e.Handler())
			defer ts.Close()
			rng := stats.NewRNG(21)
			for i := 0; i < 12; i++ {
				req := model.NewRandomRequest(cfg, 1+i%5, rng)
				want, err := e.Rank(context.Background(), "", req)
				if err != nil {
					t.Fatal(err)
				}
				code, out := postRank(t, ts.URL, bytes.NewReader(marshalRequest(t, req)))
				if code != http.StatusOK {
					t.Fatalf("request %d: status %d (%s)", i, code, out)
				}
				var got RankResponse
				if err := json.Unmarshal(out, &got); err != nil {
					t.Fatal(err)
				}
				if len(got.CTR) != len(want) {
					t.Fatalf("request %d: %d scores, want %d", i, len(got.CTR), len(want))
				}
				for j := range want {
					if math.Float32bits(got.CTR[j]) != math.Float32bits(want[j]) {
						t.Fatalf("request %d score %d: HTTP %v, Rank %v", i, j, got.CTR[j], want[j])
					}
				}
			}
		})
	}
}

// TestHTTPAbandonedRequestsKeepBuffersPrivate is the buffer-ownership
// contract under -race: abandoned requests (shed at admission, in the
// queue, or, on deadlines from 1 µs up, mid-pass with a worker still
// holding their buffers) share the scratch pool with healthy requests,
// and no healthy response ever carries another request's features.
func TestHTTPAbandonedRequestsKeepBuffersPrivate(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, Options{Workers: 2, QueueDepth: 64, MaxBatch: 4, MaxWait: 200 * time.Microsecond, IntraOpWorkers: 1})
	if err := e.Register(DefaultModelName, buildModel(t, cfg, 7), ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

	const distinct = 16
	rng := stats.NewRNG(33)
	bodies := make([][]byte, distinct)
	wants := make([][]float32, distinct)
	for i := range bodies {
		req := model.NewRandomRequest(cfg, 1+i%4, rng)
		bodies[i] = marshalRequest(t, req)
		want, err := e.Rank(context.Background(), "", req)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	// Two abandonments that do not wait on a timer: a request whose
	// context is done before the call (shed at admission), and one
	// cancelled while every executor token is held, so its job is left
	// in the queue for the first holder of the mix below to pop and
	// shed. The deadlined half of the mix adds the timed cases.
	var abandoned sync.Map
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := serveRank(h, expired, bytes.NewReader(bodies[0])); rec.Code != http.StatusRequestTimeout {
		t.Fatalf("request cancelled before the call: status %d (%s)", rec.Code, rec.Body.Bytes())
	}
	abandoned.Store(http.StatusRequestTimeout, true)
	held := make([]*workerScratch, 0, e.opts.Workers)
	for range e.opts.Workers {
		held = append(held, <-e.tokens)
	}
	queued, cancel := context.WithCancel(context.Background())
	code := make(chan int, 1)
	go func() { code <- serveRank(h, queued, bytes.NewReader(bodies[1])).Code }()
	waitQueued(t, e, DefaultModelName, 1)
	cancel()
	if c := <-code; c != http.StatusRequestTimeout {
		t.Fatalf("request cancelled in the queue: status %d", c)
	}
	for _, s := range held {
		e.tokens <- s
	}

	timeouts := []time.Duration{time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond, time.Millisecond}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (g*7 + i) % distinct
				if (g+i)%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), timeouts[(g+i/2)%len(timeouts)])
					rec := serveRank(h, ctx, bytes.NewReader(bodies[k]))
					cancel()
					if rec.Code != http.StatusOK && rec.Code != http.StatusRequestTimeout {
						t.Errorf("deadlined request: status %d (%s)", rec.Code, rec.Body.Bytes())
					}
					abandoned.Store(rec.Code, true)
					continue
				}
				rec := serveRank(h, context.Background(), bytes.NewReader(bodies[k]))
				if rec.Code != http.StatusOK {
					t.Errorf("healthy request: status %d (%s)", rec.Code, rec.Body.Bytes())
					continue
				}
				var got RankResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Error(err)
					continue
				}
				if len(got.CTR) != len(wants[k]) {
					t.Errorf("healthy request %d: %d scores, want %d", k, len(got.CTR), len(wants[k]))
					continue
				}
				for j := range got.CTR {
					if math.Float32bits(got.CTR[j]) != math.Float32bits(wants[k][j]) {
						t.Errorf("healthy request %d score %d: %v, want %v: another request's features leaked in", k, j, got.CTR[j], wants[k][j])
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, ok := abandoned.Load(http.StatusRequestTimeout); !ok {
		t.Error("no request was abandoned; the test exercised nothing")
	}
}

// TestHTTPTraceCarriesIngest: with tracing on, a request's trace reports
// the body size and the decode time, measured on the engine's ingest
// clock and kept out of TotalUS; with tracing off the handler never
// reads that clock.
func TestHTTPTraceCarriesIngest(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	body := marshalRequest(t, model.NewRandomRequest(cfg, 2, stats.NewRNG(4)))
	for _, ring := range []int{0, 4} {
		e := traceEngine(t, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1, IntraOpWorkers: 1, TraceRing: ring}, cfg)
		// A clock that jumps an hour per read: a decode measured on it
		// cannot hide inside a TotalUS measured on the wall clock.
		reads := 0
		e.now = func() time.Time {
			reads++
			return time.Unix(0, 0).Add(time.Duration(reads) * time.Hour)
		}
		if rec := serveRank(e.Handler(), context.Background(), bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("ring %d: status %d (%s)", ring, rec.Code, rec.Body.Bytes())
		}
		d, err := e.Traces("m")
		if err != nil {
			t.Fatal(err)
		}
		if ring == 0 {
			if reads != 0 || d.Enabled {
				t.Errorf("tracing off: %d ingest clock reads (want 0), enabled=%v", reads, d.Enabled)
			}
			continue
		}
		if reads != 2 {
			t.Errorf("tracing on: %d ingest clock reads, want 2", reads)
		}
		if len(d.Recent) != 1 {
			t.Fatalf("tracing on: %d traces, want 1", len(d.Recent))
		}
		tr := d.Recent[0]
		if tr.BodyBytes != len(body) {
			t.Errorf("BodyBytes = %d, want %d", tr.BodyBytes, len(body))
		}
		if hour := float64(time.Hour / time.Microsecond); tr.DecodeUS != hour {
			t.Errorf("DecodeUS = %v, want %v", tr.DecodeUS, hour)
		}
		if tr.TotalUS >= tr.DecodeUS || tr.StageSumUS() > tr.TotalUS {
			t.Errorf("decode folded into the stages: total %vµs, stages %vµs, decode %vµs", tr.TotalUS, tr.StageSumUS(), tr.DecodeUS)
		}
	}
	// In-process requests carry no ingest figures.
	e := traceEngine(t, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1, IntraOpWorkers: 1, TraceRing: 4}, cfg)
	if _, err := e.Rank(context.Background(), "m", model.NewRandomRequest(cfg, 2, stats.NewRNG(4))); err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Traces("m"); len(d.Recent) != 1 || d.Recent[0].DecodeUS != 0 || d.Recent[0].BodyBytes != 0 {
		t.Errorf("in-process trace carries ingest figures: %+v", d.Recent)
	}
}

// discardWriter is the cheapest http.ResponseWriter: the allocation
// test below must count the handler's allocations, not a recorder's.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestHTTPRankAllocsIndependentOfBody: with tracing off, what POST /rank
// allocates does not grow with the body. A 16-item RMC3 request (90 KB,
// 8192 floats) costs the same handful of allocations as a 1-item one:
// the tensor header, the response encoder and net/http's own.
func TestHTTPRankAllocsIndependentOfBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; alloc counts meaningless")
	}
	cfg := model.RMC3Small().Scaled(2000)
	e := traceEngine(t, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1, MaxWait: time.Millisecond, IntraOpWorkers: 1}, cfg)
	h := e.Handler()
	measure := func(batch int) (allocs float64, bytesPerOp uint64) {
		body := marshalRequest(t, model.NewRandomRequest(cfg, batch, stats.NewRNG(6)))
		w := &discardWriter{header: http.Header{}}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/rank/m", rd)
		run := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			w.code = http.StatusOK
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("batch %d: status %d", batch, w.code)
			}
		}
		for i := 0; i < 20; i++ {
			run()
		}
		return testing.AllocsPerRun(50, run), uint64(len(body))
	}
	small, smallBody := measure(1)
	large, largeBody := measure(16)
	t.Logf("%d-byte body: %.0f allocs/op; %d-byte body: %.0f allocs/op", smallBody, small, largeBody, large)
	if large > small+1 {
		t.Errorf("allocations grow with the body: %.0f/op at %d bytes, %.0f/op at %d bytes", small, smallBody, large, largeBody)
	}
	if large > 24 {
		t.Errorf("%.0f allocs/op; the handler's own should be a handful", large)
	}
}

// TestHTTPRankBodyReadError: a body that fails mid-read (the client hung
// up) is the client's fault, not a 500.
func TestHTTPRankBodyReadError(t *testing.T) {
	e, _, _ := httpServer(t)
	rec := serveRank(e.Handler(), context.Background(), io.MultiReader(strings.NewReader(`{"dense":[[`), errReader{}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400 (%s)", rec.Code, rec.Body.Bytes())
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }
