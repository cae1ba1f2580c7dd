package model

// ReferenceWorkload is a non-recommendation DNN used as a comparison
// point in Figure 2 (FLOPs vs bytes read) — the CNNs and RNNs whose
// optimization techniques the paper argues do not transfer to
// recommendation models.
type ReferenceWorkload struct {
	Name   string
	Family string // "CNN" or "RNN"
	// FLOPs and BytesRead are per single inference (one image, or one
	// decoded sequence for RNNs).
	FLOPs     float64
	BytesRead float64
}

// ReferenceWorkloads returns the comparison models of Figure 2 with
// well-known published per-inference FLOP counts and parameter sizes.
// BytesRead is parameters (fp32, read once per inference at unit batch)
// plus an activation-traffic estimate of 25% of parameter bytes.
func ReferenceWorkloads() []ReferenceWorkload {
	mk := func(name, family string, gflops, mparams float64) ReferenceWorkload {
		paramBytes := mparams * 1e6 * 4
		return ReferenceWorkload{
			Name:      name,
			Family:    family,
			FLOPs:     gflops * 1e9,
			BytesRead: paramBytes * 1.25,
		}
	}
	return []ReferenceWorkload{
		// CNNs: per-image FLOPs / parameter counts from the original
		// papers (224×224 inputs).
		mk("ResNet50", "CNN", 4.1, 25.6),
		mk("VGG16", "CNN", 15.5, 138),
		mk("GoogLeNet", "CNN", 1.5, 6.8),
		// RNNs: per-sequence decoding cost (GNMT 8-layer 1024-wide
		// LSTM ~ tens of tokens; DeepSpeech2 bidirectional GRU stack).
		mk("GNMT", "RNN", 3.8, 210),
		mk("DeepSpeech2", "RNN", 2.3, 38),
	}
}

// WorkloadPoint is one point in the Figure 2 scatter: a workload's
// per-inference FLOPs and bytes read.
type WorkloadPoint struct {
	Name   string
	Family string
	FLOPs  float64
	Bytes  float64
}

// Figure2Points returns the full scatter of Figure 2: the three RMC
// classes, NCF, and the CNN/RNN references, all at unit batch.
func Figure2Points() []WorkloadPoint {
	var pts []WorkloadPoint
	for _, cfg := range append(Defaults(), MLPerfNCF()) {
		s := cfg.TotalStats(1)
		pts = append(pts, WorkloadPoint{
			Name:   cfg.Name,
			Family: cfg.Class.String(),
			FLOPs:  s.FLOPs,
			Bytes:  s.ReadBytes,
		})
	}
	for _, ref := range ReferenceWorkloads() {
		pts = append(pts, WorkloadPoint{Name: ref.Name, Family: ref.Family, FLOPs: ref.FLOPs, Bytes: ref.BytesRead})
	}
	return pts
}
