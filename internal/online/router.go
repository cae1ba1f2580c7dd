package online

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"recsys/internal/engine"
	"recsys/internal/model"
)

// Arm is one weighted routing target of an A/B split.
type Arm struct {
	Name   string
	Weight int // relative traffic share, ≥ 1
}

// ABRouter splits ranking traffic across co-located model generations
// by weight — the A/B front of the online-learning loop. Picks use
// smooth weighted round-robin (the same discipline as the executor's
// fair pick), so the observed split tracks the configured weights
// exactly over any window of total-weight picks, not just in
// expectation. The arm set is swapped atomically under a lock; a Rank
// that drew a canary arm which vanished mid-flight (the updater
// promoted or dropped it) falls back to the primary.
type ABRouter struct {
	eng     *engine.Engine
	primary string

	mu        sync.Mutex
	arms      []Arm
	cur       []int // smooth-WRR current priorities, parallel to arms
	total     int
	picks     map[string]int64
	fallbacks int64
}

// NewABRouter routes everything to primary until SetArms widens the
// split.
func NewABRouter(eng *engine.Engine, primary string) (*ABRouter, error) {
	if eng == nil {
		return nil, errors.New("online: nil engine")
	}
	if primary == "" {
		primary = eng.DefaultModel()
	}
	if primary == "" {
		return nil, errors.New("online: router needs a primary model")
	}
	r := &ABRouter{eng: eng, primary: primary, picks: make(map[string]int64)}
	if err := r.SetArms(Arm{Name: primary, Weight: 1}); err != nil {
		return nil, err
	}
	return r, nil
}

// Primary returns the fallback arm's model name.
func (r *ABRouter) Primary() string { return r.primary }

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

// Fallbacks returns how many ranks fell back to the primary after
// drawing an arm that had been unregistered.
func (r *ABRouter) Fallbacks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fallbacks
}

// Rank scores req against the next weighted arm, returning the scores
// and the model name that actually served. A canary arm unregistered
// between pick and rank (a promote/drop racing traffic) is retried on
// the primary rather than surfacing a spurious error to the caller.
func (r *ABRouter) Rank(ctx context.Context, req model.Request) ([]float32, string, error) {
	name := r.Pick()
	out, err := r.eng.Rank(ctx, name, req)
	if err != nil && name != r.primary && errors.Is(err, engine.ErrModelNotFound) {
		r.mu.Lock()
		r.fallbacks++
		r.mu.Unlock()
		name = r.primary
		out, err = r.eng.Rank(ctx, name, req)
	}
	return out, name, err
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
