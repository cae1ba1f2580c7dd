package main

import (
	"testing"
	"time"
)

// A handler that stalls once must cost the requests queued behind it:
// with one connection and a request due every 10 ms, a 100 ms stall on
// request 5 delays the sending of requests 6 to 14. Timed from when
// each was due, they carry the wait; timed from when the connection
// took them, they would look fast.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	due := make([]time.Duration, 30)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	samples := openLoop(1, due, func(i int) bool {
		if i == 5 {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != len(due) {
		t.Fatalf("%d samples for %d due times", len(samples), len(due))
	}
	// One connection sends in order, so samples[i] is request i.
	for i := 6; i <= 14; i++ {
		s := samples[i]
		queued := due[5] + stall - due[i] // the stall's end, seen from request i's due time
		if s.latency() < queued {
			t.Errorf("request %d: latency %v, want at least the %v it waited behind the stall", i, s.latency(), queued)
		}
		if service := s.end - s.sent; service > stall/2 {
			t.Errorf("request %d: service time %v; the stall belongs to request 5 alone", i, service)
		}
	}
	if s := samples[2]; s.sent < s.due {
		t.Errorf("request 2 sent at %v, before it was due at %v", s.sent, s.due)
	}
	st := summarize(samples, time.Second)
	if st.lagP99MS < 80 {
		t.Errorf("generator lag p99 = %.1f ms, want the stall (≥ 80 ms) to show", st.lagP99MS)
	}
	if st.attempted != 30 || st.ok != 30 {
		t.Errorf("attempted %d ok %d, want 30 30", st.attempted, st.ok)
	}
}

func TestClosedLoopStopsAtDuration(t *testing.T) {
	samples := closedLoop(2, 50*time.Millisecond, func(int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	if len(samples) < 2 {
		t.Fatalf("%d samples, want both connections to have sent", len(samples))
	}
	for _, s := range samples {
		if s.due >= 50*time.Millisecond {
			t.Errorf("a request was sent at %v, after the phase ended", s.due)
		}
	}
}

// A wrong or failed response is a failure and an SLA miss, never a
// latency sample.
func TestSummarizeCountsFailuresAsSLAMisses(t *testing.T) {
	ms := time.Millisecond
	st := summarize([]sample{
		{due: 0, sent: 0, end: 2 * ms, correct: true},
		{due: 0, sent: 1 * ms, end: 30 * ms, correct: true}, // over the SLA
		{due: 0, sent: 0, end: 1 * ms, correct: false},
		{due: 0, sent: 0, end: 3 * ms, correct: true},
	}, 10*ms)
	if st.attempted != 4 || st.ok != 3 || len(st.latenciesMS) != 3 {
		t.Errorf("attempted %d ok %d samples %d, want 4 3 3", st.attempted, st.ok, len(st.latenciesMS))
	}
	if st.slaOKFrac() != 0.5 {
		t.Errorf("SLA-ok share = %g, want 0.5 of the four sent", st.slaOKFrac())
	}
	if p50 := percentile(st.latenciesMS, 50); p50 != 3 {
		t.Errorf("p50 = %g ms, want 3", p50)
	}
}

func TestCheckScores(t *testing.T) {
	ok := []float32{0.25, 0.5}
	if err := checkScores(ok, 2, nil, 1e-5, 1e-6); err != nil {
		t.Errorf("valid scores rejected: %v", err)
	}
	if err := checkScores(ok, 2, []float32{0.25, 0.5000001}, 1e-5, 1e-6); err != nil {
		t.Errorf("scores within tolerance of the twin rejected: %v", err)
	}
	for name, c := range map[string]struct {
		got, want []float32
		items     int
	}{
		"wrong length":      {ok, nil, 3},
		"score of one":      {[]float32{0.5, 1}, nil, 2},
		"score of zero":     {[]float32{0, 0.5}, nil, 2},
		"differs from twin": {ok, []float32{0.25, 0.6}, 2},
	} {
		if err := checkScores(c.got, c.items, c.want, 1e-5, 1e-6); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Slices are cut by due time; a wrong response and a slice nothing was
// due in contribute nothing.
func TestSliceMedians(t *testing.T) {
	ms := time.Millisecond
	at := func(due, latency time.Duration, ok bool) sample {
		return sample{due: due, sent: due, end: due + latency, correct: ok}
	}
	got := sliceMedians([]sample{
		at(100*ms, 2*ms, true), at(500*ms, 4*ms, true), at(900*ms, 9*ms, true),
		at(1500*ms, 50*ms, false),
		at(2100*ms, 6*ms, true), at(2200*ms, 8*ms, true),
		at(3000*ms, 1*ms, true), // past the last slice
	}, time.Second, 3)
	if len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Errorf("sliceMedians = %v, want [4 7]", got)
	}
}

func TestPlanRoundsAndCutArrivals(t *testing.T) {
	rounds, sat, open := planRounds(32)
	if rounds != 4 || sat != 2500*time.Millisecond || open != 5500*time.Millisecond {
		t.Errorf("planRounds(32) = %d rounds of %v + %v, want 4 of 2.5s + 5.5s", rounds, sat, open)
	}
	if rounds, sat, open = planRounds(1); rounds != 1 || sat != satSlice || open != time.Second {
		t.Errorf("planRounds(1) = %d rounds of %v + %v, want one of a slice + 1s", rounds, sat, open)
	}
	s := time.Second
	cut := cutArrivals([]time.Duration{1 * s, 4 * s, 5 * s, 9 * s, 10 * s}, 5*s, 2)
	if len(cut) != 2 || len(cut[0]) != 2 || len(cut[1]) != 2 || cut[1][0] != 0 || cut[1][1] != 4*s {
		t.Errorf("cutArrivals = %v, want [[1s 4s] [0s 4s]]", cut)
	}
}
