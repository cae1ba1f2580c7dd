package online

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Arm is one weighted routing target of an A/B split.
type Arm struct {
	Name   string
	Weight int // relative traffic share, ≥ 1
}

// ABRouter splits ranking traffic across co-located model generations
// by weight — the A/B front of the online-learning loop. Pick is its
// only decision: the caller ranks on the arm it returns. Picks use
// smooth weighted round-robin (the same discipline as the executor's
// fair pick), so the observed split tracks the configured weights
// exactly over any window of total-weight picks, not just in
// expectation. The arm set is swapped atomically under a lock. Every
// arm names a model that stays registered (the updater's canary slot
// is permanent), so a picked arm is always servable.
type ABRouter struct {
	mu    sync.Mutex
	arms  []Arm
	cur   []int // smooth-WRR current priorities, parallel to arms
	total int
	picks map[string]int64
}

// NewABRouter routes everything to primary until SetArms widens the
// split.
func NewABRouter(primary string) (*ABRouter, error) {
	r := &ABRouter{picks: make(map[string]int64)}
	if err := r.SetArms(Arm{Name: primary, Weight: 1}); err != nil {
		return nil, err
	}
	return r, nil
}

// SetArms replaces the routing table. Weights are relative; every arm
// needs a name and a positive weight. The WRR state resets, so the new
// split applies exactly from the next pick.
func (r *ABRouter) SetArms(arms ...Arm) error {
	if len(arms) == 0 {
		return errors.New("online: empty arm set")
	}
	total := 0
	for _, a := range arms {
		if a.Name == "" {
			return errors.New("online: arm with empty model name")
		}
		if a.Weight <= 0 {
			return fmt.Errorf("online: arm %q has non-positive weight %d", a.Name, a.Weight)
		}
		total += a.Weight
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arms = append([]Arm(nil), arms...)
	r.cur = make([]int, len(arms))
	r.total = total
	return nil
}

// Pick selects the next arm by smooth weighted round-robin and counts
// the pick.
func (r *ABRouter) Pick() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pickLocked()
}

func (r *ABRouter) pickLocked() string {
	best := 0
	for i := range r.arms {
		r.cur[i] += r.arms[i].Weight
		if r.cur[i] > r.cur[best] {
			best = i
		}
	}
	r.cur[best] -= r.total
	name := r.arms[best].Name
	r.picks[name]++
	return name
}

// sortedArmNames returns the lexically sorted union of ever-picked arm
// names — the deterministic series order for the metrics exposition.
func (r *ABRouter) sortedArmNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.picks))
	for k := range r.picks {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// pickCount returns the cumulative picks of one arm.
func (r *ABRouter) pickCount(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.picks[name]
}
