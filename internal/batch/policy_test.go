package batch

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := (Policy{MaxBatch: 1}).Validate(); err != nil {
		t.Errorf("unit policy should validate: %v", err)
	}
	if err := (Policy{MaxBatch: 0}).Validate(); err == nil {
		t.Error("zero MaxBatch should be invalid")
	}
	if err := (Policy{MaxBatch: 8, MaxWait: -time.Millisecond}).Validate(); err == nil {
		t.Error("negative MaxWait should be invalid")
	}
}

func TestEnabledAndFull(t *testing.T) {
	p := Policy{MaxBatch: 4, MaxWait: time.Millisecond}
	if !p.Enabled() || (Policy{MaxBatch: 1}).Enabled() {
		t.Error("Enabled should reflect MaxBatch > 1")
	}
	if p.Full(3) || !p.Full(4) || !p.Full(5) {
		t.Error("Full should trigger at MaxBatch")
	}
	if us := (Policy{MaxWait: 2 * time.Millisecond}).WaitUS(); us != 2000 {
		t.Errorf("WaitUS = %v, want 2000", us)
	}
}

// TestHold is the cut rule's truth table: hold a partial batch only
// when there is a peer and every peer is busy.
func TestHold(t *testing.T) {
	p := Policy{MaxBatch: 8, MaxWait: time.Millisecond}
	for _, tc := range []struct {
		name            string
		pol             Policy
		n, others, free int
		want            bool
	}{
		{"every peer busy", p, 3, 1, 0, true},
		{"every one of three peers busy", p, 3, 3, 0, true},
		{"one peer free", p, 3, 1, 1, false},
		{"one of three peers free", p, 3, 3, 1, false},
		{"no peer: a pool of one never holds", p, 3, 0, 0, false},
		{"full batch", p, 8, 1, 0, false},
		{"over-full batch", p, 20, 1, 0, false},
		{"coalescing off", Policy{MaxBatch: 1, MaxWait: time.Millisecond}, 1, 1, 0, false},
		{"zero MaxWait", Policy{MaxBatch: 8}, 3, 1, 0, false},
	} {
		if got := tc.pol.Hold(tc.n, tc.others, tc.free); got != tc.want {
			t.Errorf("%s: Hold(%d, %d, %d) = %v, want %v", tc.name, tc.n, tc.others, tc.free, got, tc.want)
		}
	}
}
