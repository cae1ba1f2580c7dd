package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"recsys/internal/model"
)

// workers is the -workers every server is started with.
func workers() int { return min(runtime.NumCPU(), 4) }

// clientConns is C: the connections, and sending goroutines, of the
// single load-generator process. Sixteen requests of 4 items are two of
// the server's default batches of 32 samples, one for each worker of a
// two-core host, so the closed loop saturates the server. With fewer it
// waits out the batch former's MaxWait, or all connections ride in one
// batch while the other worker idles, and which of the two it does flips
// every few seconds; README.md has the series.
const clientConns = 16

const (
	poolSize    = 512 // distinct request bodies per run, cycled in order
	oracleEvery = 16  // every 16th body carries the twin's scores
	// satSlice and openSlice are the lengths of one slice of each phase.
	satSlice  = 500 * time.Millisecond
	openSlice = time.Second
	// tailPct is the tail percentile the phase lines and open.p95_ms
	// report; README.md records why it is not p99.
	tailPct = 95
)

// stack is one workload's processes under test: serve, and the
// embshard children it gathers from.
type stack struct {
	serve  *child
	shards []*child
	url    string
	addrs  []string      // embshard listen addresses
	setup  time.Duration // first exec → serve answers /healthz
}

func (s *stack) all() []*child { return append([]*child{s.serve}, s.shards...) }

// startStack starts the workload's children and waits until serve is
// healthy. traceRing > 0 passes -trace.
func startStack(binDir string, w workload, traceRing int) (*stack, error) {
	s := &stack{}
	begin := time.Now()
	for i := 0; i < w.shards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := startChild(fmt.Sprintf("embshard[%d]", i), filepath.Join(binDir, "embshard"),
			"-listen", addr, "-model", w.modelSpec(), "-seed", strconv.Itoa(serverSeed))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, c)
		s.addrs = append(s.addrs, addr)
	}
	// serve dials its shards at start-up, so they must be listening.
	for i, c := range s.shards {
		if err := c.awaitReady(tcpProbe(s.addrs[i])); err != nil {
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-workers", strconv.Itoa(workers()), "-seed", strconv.Itoa(serverSeed), "-model", w.modelSpec()}
	if w.embCache > 0 {
		args = append(args, "-emb-cache", strconv.Itoa(w.embCache))
	}
	if len(s.addrs) > 0 {
		args = append(args, "-emb-shards", strings.Join(s.addrs, ","))
	}
	if traceRing > 0 {
		args = append(args, "-trace", strconv.Itoa(traceRing))
	}
	if s.serve, err = startChild("serve", filepath.Join(binDir, "serve"), args...); err != nil {
		return nil, err
	}
	s.url = "http://" + addr
	if err := s.serve.awaitReady(httpProbe(s.url + "/healthz")); err != nil {
		return nil, err
	}
	s.setup = time.Since(begin)
	return s, nil
}

// stop shuts serve down before its shards and requires every child to
// exit cleanly; early is for a stack stopped as soon as it was healthy.
func (s *stack) stop(early bool) error {
	var errs []error
	for _, c := range s.all() {
		errs = append(errs, c.stop(early))
	}
	return errors.Join(errs...)
}

// alive fails if any child has died.
func (s *stack) alive() error {
	for _, c := range s.all() {
		if err := c.died(); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) get(path string) (string, error) {
	resp, err := http.Get(s.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("bench: GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), nil
}

// inputs is everything a run derives from the workload and the seed
// before any child starts.
type inputs struct {
	twin  *model.Model
	pool  []request
	gemmK int // widest FC input, which sets the oracle's tolerance
}

func prepare(w workload, seed uint64) (*inputs, error) {
	twin, err := w.buildTwin()
	if err != nil {
		return nil, err
	}
	in := &inputs{twin: twin, pool: genPool(twin.Config, w.items, w.zipf, seed, poolSize)}
	cfg := twin.Config
	in.gemmK = max(cfg.DenseIn, cfg.TopMLPIn())
	for _, width := range append(append([]int(nil), cfg.BottomMLP...), cfg.TopMLP...) {
		in.gemmK = max(in.gemmK, width)
	}
	for i := 0; i < len(in.pool); i += oracleEvery {
		in.pool[i].want = twin.CTR(in.pool[i].req)
	}
	return in, nil
}

// result is what one run reports: the contract's counts plus named
// metric values.
type result struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	notes             []string
}

// phaseLine renders the counts printed for every phase.
func phaseLine(name string, st phaseStats) string { return name + ": " + st.String() }

// roundSeconds is the length of one round of the measured time. A
// neighbour on a shared host slows this one down for ten to thirty
// seconds at a time (README.md has the series), which would swallow a
// whole phase; in rounds, each phase samples the whole run.
const roundSeconds = 8

// planRounds divides a run's measured seconds into rounds of a
// saturation and an open-loop phase each, one third to two thirds.
func planRounds(seconds int) (rounds int, sat, open time.Duration) {
	rounds = max(seconds/roundSeconds, 1)
	round := time.Duration(seconds) * time.Second / time.Duration(rounds)
	sat = (round / 3).Truncate(satSlice)
	if sat < satSlice {
		sat = satSlice
	}
	return rounds, sat, max(round-sat, time.Second)
}

// cutArrivals splits the due times of one arrival process into n
// rounds of the given length, each counted from its own start.
func cutArrivals(due []time.Duration, length time.Duration, n int) [][]time.Duration {
	out := make([][]time.Duration, n)
	for _, d := range due {
		if k := int(d / length); k < n {
			out[k] = append(out[k], d-time.Duration(k)*length)
		}
	}
	return out
}

// warmUp drives the closed loop until the server has reached the state
// a long-running one is in. Lazy weight packing, cache fill and the
// hedging quantiles settle within the workload's shortest warm-up. The
// heap takes longer: until the server's first garbage collection at
// its full heap size has run, every allocation lands on memory the
// process has never touched, and on this kind of host a first touch
// costs tens of microseconds, which raised rmc2's CPU per item by half
// for as long as it lasted. So the warm-up goes on, a second at a time,
// while the server still takes page faults at more than settledFaults
// a second, up to warmUpMax.
func warmUp(s *stack, r *ranker, w workload) (phaseStats, time.Duration, error) {
	var all []sample
	begin := time.Now()
	for {
		before, err := minorFaults(s.serve)
		if err != nil {
			return phaseStats{}, 0, err
		}
		all = append(all, closedLoop(w.conns, time.Second, r.send)...)
		after, err := minorFaults(s.serve)
		if err != nil {
			return phaseStats{}, 0, errors.Join(err, s.alive())
		}
		elapsed := time.Since(begin)
		if (elapsed >= w.warm && after-before < settledFaults) || elapsed >= warmUpMax {
			return summarize(all, w.sla), elapsed, nil
		}
	}
}

const (
	settledFaults = 2000 // page faults a second; a growing heap takes tens of thousands
	warmUpMax     = 14 * time.Second
)

// satSlices holds the saturation phase cut into slices of satSlice.
type satSlices struct {
	itemsPerS    []float64
	cpuMSPerItem []float64
}

// saturate runs the closed loop for dur, reading the children's CPU
// time at every slice boundary.
func saturate(s *stack, r *ranker, w workload, dur time.Duration) ([]sample, satSlices, error) {
	type reading struct {
		at  time.Duration
		cpu time.Duration
	}
	var readings []reading
	var readErr error
	begin := time.Now()
	read := func() {
		cpu, err := cpuTime(s.all())
		readErr = errors.Join(readErr, err)
		readings = append(readings, reading{time.Since(begin), cpu})
	}
	read()
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(satSlice)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-done:
				return
			}
		}
	}()
	samples := closedLoop(w.conns, dur, r.send)
	close(done)
	<-stopped
	if len(readings) <= int(dur/satSlice) {
		read() // the loop returned before the last tick
	}
	if readErr != nil {
		return samples, satSlices{}, readErr
	}
	bounds := make([]time.Duration, len(readings))
	for i, rd := range readings {
		bounds[i] = rd.at
	}
	var sl satSlices
	for i, items := range sliceCounts(summarize(samples, w.sla).ends, w.items, bounds) {
		sl.itemsPerS = append(sl.itemsPerS, items/(bounds[i+1]-bounds[i]).Seconds())
		if items > 0 {
			sl.cpuMSPerItem = append(sl.cpuMSPerItem, float64(readings[i+1].cpu-readings[i].cpu)/1e6/items)
		}
	}
	return samples, sl, nil
}

// setUp starts the workload's stack several times and returns the last
// one running, with the median set-up time: at least two starts, and up
// to fifteen while they are cheap, because a 10 ms set-up needs more
// repeats than a 2 s one to give a steady median.
func setUp(binDir string, w workload) (*stack, float64, error) {
	var times []float64
	begin := time.Now()
	for {
		s, err := startStack(binDir, w, 0)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, s.setup.Seconds())
		if len(times) >= 15 || (len(times) >= 2 && time.Since(begin) > 2*time.Second) {
			return s, median(times), nil
		}
		if err := s.stop(true); err != nil {
			return nil, 0, err
		}
	}
}

// runEndToEnd measures one workload's end-to-end metrics against real
// child processes.
func runEndToEnd(binDir string, w workload, seed uint64, seconds int) (*result, error) {
	in, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	rounds, satDur, openDur := planRounds(seconds)
	arrivals := cutArrivals(genArrivals(seed, w.rate, time.Duration(rounds)*openDur), openDur, rounds)

	s, setupS, err := setUp(binDir, w)
	if err != nil {
		return nil, err
	}
	r := newRanker(s.url, clientConns, in.pool, w.items, in.gemmK)
	defer r.close()

	warm, warmed, err := warmUp(s, r, w)
	if err != nil {
		return nil, err
	}

	// Every timed metric is taken per slice of its phase, half a second
	// of saturation or a second of the open loop, and is what the best
	// tenth of the slices reached: whatever else runs on a shared host
	// only ever slows this one down, for seconds at a time, so the best
	// slices are the ones that measured the program.
	var satSamples, openSamples []sample
	var slices satSlices
	var p50s []float64
	for k := 0; k < rounds; k++ {
		if err := s.alive(); err != nil {
			return nil, err
		}
		samples, sl, err := saturate(s, r, w, satDur)
		if err != nil {
			return nil, errors.Join(err, s.alive())
		}
		satSamples = append(satSamples, samples...)
		slices.itemsPerS = append(slices.itemsPerS, sl.itemsPerS...)
		slices.cpuMSPerItem = append(slices.cpuMSPerItem, sl.cpuMSPerItem...)

		samples = openLoop(clientConns, arrivals[k], r.send)
		openSamples = append(openSamples, samples...)
		p50s = append(p50s, sliceMedians(samples, openSlice, max(int(openDur/openSlice), 1))...)
	}
	sat, open := summarize(satSamples, w.sla), summarize(openSamples, w.sla)
	if err := s.alive(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(s.all())
	if err != nil {
		return nil, err
	}
	if err := s.stop(false); err != nil {
		return nil, err
	}

	res := &result{
		attempted: warm.attempted + sat.attempted + open.attempted,
		failed:    warm.attempted - warm.ok + sat.attempted - sat.ok + open.attempted - open.ok,
		firstErr:  r.firstErr,
		values: map[string]float64{
			"setup_s":          setupS,
			"sat_items_per_s":  highestTenth(slices.itemsPerS),
			"open_p50_ms":      lowestTenth(p50s),
			"open_sla_ok_frac": open.slaOKFrac(),
			"cpu_ms_per_item":  lowestTenth(slices.cpuMSPerItem),
			"rss_peak_mb":      rss,
		},
		notes: []string{
			fmt.Sprintf("warm-up (%.0f s): %s", warmed.Seconds(), warm),
			phaseLine("sat", sat), phaseLine("open", open),
			fmt.Sprintf("slices: %d of sat, %d of open, in %d rounds", len(slices.itemsPerS), len(p50s), rounds),
		},
	}
	return res, nil
}
