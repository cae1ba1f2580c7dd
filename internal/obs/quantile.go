package obs

// Windowed quantile estimation over fixed-bucket histograms. The
// engine's latency histograms are cumulative (never reset), which is
// what Prometheus wants but useless for a feedback controller: a
// scheduling decision must react to the *recent* tail, not the
// lifetime distribution. The tools here are snapshot subtraction
// (turning two cumulative snapshots into the histogram of everything
// observed between them) and interpolated quantiles over a snapshot —
// the same estimator Prometheus's histogram_quantile applies
// server-side, computed in-process so the controller needs no scrape
// loop.

// Sub returns the delta histogram prev..s: the distribution of values
// observed after prev was taken. Both snapshots must come from the
// same histogram (identical bounds); a zero-value prev is treated as
// the empty start-of-time snapshot, so the first window of a
// controller needs no special case. Counts are clamped at zero so a
// snapshot pair that straddles concurrent Observes (each bucket is
// read individually) can never produce a negative bucket.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if prev.Counts == nil {
		return s
	}
	if len(prev.Counts) != len(s.Counts) {
		panic("obs: Sub across different histogram layouts")
	}
	d := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
		Count:  0,
	}
	for i := range s.Counts {
		if c := s.Counts[i] - prev.Counts[i]; c > 0 {
			d.Counts[i] = c
			d.Count += c
		}
	}
	return d
}

// Add returns the histogram of the values in s and in other together:
// the engine-wide view of per-model histograms, which share one layout.
// A zero-value s is the empty snapshot, so a sum can start from one.
func (s HistSnapshot) Add(other HistSnapshot) HistSnapshot {
	if s.Counts == nil {
		return other
	}
	if len(other.Counts) != len(s.Counts) {
		panic("obs: Add across different histogram layouts")
	}
	d := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum + other.Sum,
		Count:  s.Count + other.Count,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] + other.Counts[i]
	}
	return d
}

// Quantile estimates the q-quantile (0 < q <= 1) of the snapshot by
// linear interpolation within the bucket holding the target rank,
// exactly like Prometheus's histogram_quantile: the first bucket
// interpolates from zero, and a rank landing in the +Inf bucket
// returns the last finite bound (the estimator cannot extrapolate
// past its layout — callers comparing against an SLA inside the
// bucket range are unaffected). Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if i == len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			}
			hi := float64(s.Bounds[i])
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}
