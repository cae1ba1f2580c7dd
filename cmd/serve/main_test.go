package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/obs"
	"recsys/internal/stack"
)

// startServer boots the stack the binary serves — stack.Start over a
// flag-shaped config, with -pprof on — and serves its handler on a real
// loopback listener (httptest binds 127.0.0.1:0).
func startServer(t *testing.T, cfg stack.Config, specs ...string) (*stack.Stack, *httptest.Server) {
	t.Helper()
	for _, s := range specs {
		spec, err := model.ParseSpec(s, 1000)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Models = append(cfg.Models, spec)
	}
	cfg.Seed = 1
	cfg.Pprof = true
	st, err := stack.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Handler())
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return st, srv
}

// rankBody builds a valid POST /rank payload for the registered model.
func rankBody(t *testing.T, eng *engine.Engine, name string, batch int) []byte {
	t.Helper()
	m, err := eng.Model(name)
	if err != nil {
		t.Fatal(err)
	}
	var rr RankRequestDoc
	for b := 0; b < batch; b++ {
		row := make([]float32, m.Config.DenseIn)
		for i := range row {
			row[i] = float32(b+i) / 10
		}
		rr.Dense = append(rr.Dense, row)
	}
	for _, tb := range m.Config.Tables {
		ids := make([]int, batch*tb.Lookups)
		for i := range ids {
			ids[i] = i % tb.Rows
		}
		rr.SparseIDs = append(rr.SparseIDs, ids)
	}
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// RankRequestDoc mirrors engine.RankRequest's wire shape; declared
// locally so the test exercises the JSON contract, not the Go type.
type RankRequestDoc struct {
	Dense     [][]float32 `json:"dense,omitempty"`
	SparseIDs [][]int     `json:"sparse_ids"`
}

// TestServeEndToEnd drives the full binary surface over HTTP: rank a
// request, scrape /metrics, fetch the request trace, and hit pprof.
func TestServeEndToEnd(t *testing.T) {
	st, srv := startServer(t, stack.Config{
		Workers: 2, MaxBatch: 4, // queue depth 4·2·4 = 32, asserted below
		MaxWait: 200 * time.Microsecond, IntraOp: 1,
		TraceRing: 8,
	}, "rmc1")
	eng := st.Engine

	const batch = 3
	resp, err := http.Post(srv.URL+"/rank", "application/json",
		bytes.NewReader(rankBody(t, eng, engine.DefaultModelName, batch)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /rank: status %d: %s", resp.StatusCode, b)
	}
	var ranked struct {
		CTR []float32 `json:"ctr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.CTR) != batch {
		t.Fatalf("got %d scores, want %d", len(ranked.CTR), batch)
	}

	// /metrics reflects the completed request.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	for _, want := range []string{
		`recsys_requests_total{model="default"} 1`,
		`recsys_samples_total{model="default"} 3`,
		`recsys_rank_latency_seconds_count{model="default"} 1`,
		`recsys_traces_total{model="default"} 1`,
		`recsys_queue_capacity{model="default"} 32`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("GET /metrics missing %q in:\n%s", want, metrics)
		}
	}

	// /trace/{model} returns the retained trace with tiled stages.
	tresp, err := http.Get(srv.URL + "/trace/" + engine.DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: status %d", tresp.StatusCode)
	}
	var dump obs.Dump
	if err := json.NewDecoder(tresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if !dump.Enabled || dump.Added != 1 || len(dump.Recent) != 1 {
		t.Fatalf("trace dump: enabled=%v added=%d recent=%d", dump.Enabled, dump.Added, len(dump.Recent))
	}
	tr := dump.Recent[0]
	if tr.Outcome != obs.OutcomeOK || tr.Model != engine.DefaultModelName || tr.Batch != batch {
		t.Fatalf("trace: %+v", tr)
	}
	if tr.ExecuteUS <= 0 || tr.TotalUS < tr.ExecuteUS || len(tr.Ops) == 0 {
		t.Fatalf("trace stages: execute=%v total=%v ops=%d", tr.ExecuteUS, tr.TotalUS, len(tr.Ops))
	}

	// Unknown model → 404.
	nresp, err := http.Get(srv.URL + "/trace/nope")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /trace/nope: status %d, want 404", nresp.StatusCode)
	}

	// -pprof mounts the profiler endpoints next to the ranking API.
	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline: status %d", presp.StatusCode)
	}
}

// TestServeBadRequest checks the HTTP error taxonomy end to end: a
// shape-invalid body is rejected with 400 before execution and counted
// in /metrics as rejected.
func TestServeBadRequest(t *testing.T) {
	_, srv := startServer(t, stack.Config{
		Workers: 1, MaxBatch: 1, MaxWait: time.Millisecond, IntraOp: 1,
	}, "rmc1")

	resp, err := http.Post(srv.URL+"/rank", "application/json",
		strings.NewReader(`{"dense": [[1,2]], "sparse_ids": []}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed rank: status %d, want 400", resp.StatusCode)
	}
}

// TestServeEmbCacheWithoutShards: -emb-cache without -emb-shards is
// accepted (bench/ passes it to in-process workloads), attaches
// nothing, says so in one start-up log line, and serves.
func TestServeEmbCacheWithoutShards(t *testing.T) {
	var logged []string
	cfg := stack.Config{
		Workers: 1, MaxBatch: 1, MaxWait: time.Millisecond, IntraOp: 1,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	}
	cfg.EmbCache.RowsPerTable = 64
	st, srv := startServer(t, cfg, "rmc2-int8")
	if len(logged) != 1 || !strings.Contains(logged[0], "-emb-cache 64 ignored") {
		t.Errorf("start-up log = %q, want the one -emb-cache notice", logged)
	}
	resp, err := http.Post(srv.URL+"/rank", "application/json",
		bytes.NewReader(rankBody(t, st.Engine, engine.DefaultModelName, 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /rank: status %d", resp.StatusCode)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(mb), "recsys_embcache_") {
		t.Error("GET /metrics carries recsys_embcache_* lines with no shard tier")
	}
}

// TestServeSplitAndSLA boots two co-located models with -split and -sla
// set, the way main does: every model is registered under the split
// threshold (not patched afterwards), and the observe-only controller's
// recsys_sched_* families ride the same /metrics scrape.
func TestServeSplitAndSLA(t *testing.T) {
	st, srv := startServer(t, stack.Config{
		Workers: 2, MaxBatch: 4, MaxWait: 200 * time.Microsecond, IntraOp: 1,
		SplitAbove: 2, SLA: 50 * time.Millisecond, AdaptInterval: time.Hour,
	}, "filter=rmc1@2", "ranker=rmc3")
	for _, name := range []string{"filter", "ranker"} {
		pol, err := st.Engine.Policy(name)
		if err != nil {
			t.Fatal(err)
		}
		if pol.SplitAbove != 2 || pol.MaxBatch != 4 || pol.MaxWait != 200*time.Microsecond {
			t.Errorf("%s registered under %+v, want MaxBatch 4, MaxWait 200µs, SplitAbove 2", name, pol)
		}
	}

	// A five-sample request is over the threshold: it is served in
	// chunks and comes back whole.
	resp, err := http.Post(srv.URL+"/rank", "application/json", bytes.NewReader(rankBody(t, st.Engine, "filter", 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ranked struct {
		CTR []float32 `json:"ctr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ranked); err != nil || len(ranked.CTR) != 5 {
		t.Fatalf("split POST /rank: status %d, %d scores, err %v", resp.StatusCode, len(ranked.CTR), err)
	}

	// One control tick by hand (the hour-long interval never fires)
	// gives every model its per-model series.
	st.Controller.Step()
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"recsys_sched_sla_seconds 0.05",
		"recsys_sched_adapt_enabled 0",
		`recsys_sched_max_batch{model="filter"} 4`,
		`recsys_sched_max_batch{model="ranker"} 4`,
		`recsys_sched_holds_total{model="ranker"}`,
		`recsys_splits_total{model="filter"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("GET /metrics missing %q", want)
		}
	}
}

// TestServeRefusesRetiredSuffix: the int8-MLP tier is retired, so
// `-model rmc3-int8mlp` must stop serve at start-up with the parser's
// "unknown preset" error and a non-zero exit, not serve fp32 MLPs under
// the old name. main runs in a child process, this test binary
// re-executed with a trailing "serve-main" argument, since log.Fatal
// exits.
func TestServeRefusesRetiredSuffix(t *testing.T) {
	if flag.Arg(0) == "serve-main" {
		os.Args = []string{"serve", "-model", "rmc3-int8mlp", "-scale", "1000", "-addr", "127.0.0.1:0"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestServeRefusesRetiredSuffix$", "serve-main").CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("serve -model rmc3-int8mlp was still running after 30 s (serving?); output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("serve -model rmc3-int8mlp: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "unknown preset") {
		t.Errorf("serve -model rmc3-int8mlp output lacks \"unknown preset\":\n%s", out)
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestServeSignalBeforeListen is main's start-up order: the signal
// handler first, then the listen. A SIGINT that has already landed when
// serve starts must end in a clean return with the port released, where
// the old order (listen, then install the handler) let it kill the
// process.
func TestServeSignalBeforeListen(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT)
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT was not delivered to the handler")
	}
	addr := freeAddr(t)
	if err := serve(ctx, newHTTPServer(addr, http.NotFoundHandler()), time.Second); err != nil {
		t.Fatalf("serve after an early SIGINT: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("the server still listens after serve returned")
	}
}

// TestServeDrainsOnSignal: serve answers until its context ends, then
// returns nil; a port it cannot bind is returned as the error. The
// server it runs bounds idle and header-less connections.
func TestServeDrainsOnSignal(t *testing.T) {
	addr := freeAddr(t)
	srv := newHTTPServer(addr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("server timeouts unset: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, time.Second) }()
	var resp *http.Response
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err = http.Get("http://" + addr + "/"); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The port is taken: a second serve reports it instead of waiting.
	if err := serve(context.Background(), newHTTPServer(addr, nil), time.Second); err == nil {
		t.Error("serve on a bound port returned nil")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after its context ended")
	}
}

// TestServeCutsTricklingBody is the slow-body row of the failure table:
// clients that declare an 8 MiB POST /rank body and send it a byte at a
// time are answered 400 and hung up on once the server's read deadline
// passes, hold a presized buffer each (not the declared 8 MiB) while
// they trickle, and leave no goroutine behind.
func TestServeCutsTricklingBody(t *testing.T) {
	spec, err := model.ParseSpec("rmc1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stack.Start(stack.Config{Models: []model.Spec{spec}, Seed: 1, Workers: 1, MaxBatch: 1, IntraOp: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := freeAddr(t)
	srv := newHTTPServer(addr, st.Handler())
	if srv.ReadTimeout <= 0 {
		t.Fatalf("server read timeout unset: %v", srv.ReadTimeout)
	}
	srv.ReadTimeout = 500 * time.Millisecond // the mechanism, not readTimeout's 30 s
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv, time.Second) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	// One healthy request first: the listener is up, and the pools and
	// net/http's per-server state exist before the baselines are taken.
	body := rankBody(t, st.Engine, "", 2)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var resp *http.Response
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err = client.Post("http://"+addr+"/rank", "application/json", bytes.NewReader(body)); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request: status %d", resp.StatusCode)
	}
	goroutines := runtime.NumGoroutine()
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const (
		conns    = 16
		declared = 8 << 20
		presize  = 256 << 10 // engine.maxBodyPresize
	)
	stop := make(chan struct{})
	var tricklers sync.WaitGroup
	cut := make(chan int, conns) // each connection's status once the server hung up
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST /rank HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, declared)
		tricklers.Add(1)
		go func() {
			defer tricklers.Done()
			for i := 0; ; i++ {
				if _, err := conn.Write(body[i%len(body) : i%len(body)+1]); err != nil {
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}()
		go func() {
			status := 0
			if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
				status = resp.StatusCode
				io.Copy(io.Discard, resp.Body) // to EOF: the server closed the connection
				resp.Body.Close()
			}
			cut <- status
		}()
	}
	time.Sleep(100 * time.Millisecond) // every handler is reading its body by now
	runtime.GC()
	runtime.ReadMemStats(&during)
	if grew := int64(during.HeapAlloc) - int64(before.HeapAlloc); grew > conns*2*presize {
		t.Errorf("%d trickling bodies declaring %d bytes each hold %d bytes of heap, want at most %d", conns, declared, grew, conns*2*presize)
	}
	for c := 0; c < conns; c++ {
		select {
		case status := <-cut:
			if status != http.StatusBadRequest {
				t.Errorf("trickling connection: status %d, want 400 and a closed connection", status)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a trickling connection was not cut")
		}
	}
	close(stop)
	tricklers.Wait()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > goroutines && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > goroutines {
		stacks := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the cut, %d before the trickle:\n%s", n, goroutines, stacks[:runtime.Stack(stacks, true)])
	}
}
