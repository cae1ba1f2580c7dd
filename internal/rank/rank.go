// Package rank implements the two-stage personalization pipeline of
// the paper's Figure 6: a lightweight filtering model (RMC1-class)
// reduces thousands of candidates by an order of magnitude, then a
// heavyweight ranking model (RMC2/RMC3-class) orders the survivors and
// the top handful is served.
package rank

import (
	"fmt"
	"sort"

	"recsys/internal/model"
)

// Result is one served candidate: its index in the original candidate
// list and its final ranking score.
type Result struct {
	Index int
	Score float32
}

// TopK returns the indices and scores of the k highest scores, best
// first (ties broken by lower index for determinism). It panics if
// k exceeds len(scores) or is non-positive.
func TopK(scores []float32, k int) []Result {
	if k <= 0 || k > len(scores) {
		panic(fmt.Sprintf("rank: TopK k=%d over %d scores", k, len(scores)))
	}
	res := make([]Result, len(scores))
	for i, s := range scores {
		res[i] = Result{Index: i, Score: s}
	}
	sort.Slice(res, func(a, b int) bool {
		if res[a].Score != res[b].Score {
			return res[a].Score > res[b].Score
		}
		return res[a].Index < res[b].Index
	})
	return res[:k]
}

// Pipeline is a filtering→ranking cascade.
type Pipeline struct {
	// Filter is the lightweight first-stage model.
	Filter *model.Model
	// Ranker is the heavyweight second-stage model.
	Ranker *model.Model
	// FilterTo is how many candidates survive filtering.
	FilterTo int
	// ServeTo is how many results are returned.
	ServeTo int
}

// Validate checks the cascade's structure.
func (p *Pipeline) Validate() error {
	if p.Filter == nil || p.Ranker == nil {
		return fmt.Errorf("rank: pipeline needs both stages")
	}
	if p.ServeTo <= 0 || p.FilterTo < p.ServeTo {
		return fmt.Errorf("rank: need FilterTo >= ServeTo > 0, got %d, %d", p.FilterTo, p.ServeTo)
	}
	return nil
}

// Run ranks the candidates in filterReq. buildRankReq converts the
// surviving candidate indices into the ranking model's input (stage
// feature sets usually differ). The returned results carry indices into
// the ORIGINAL candidate list, best first.
func (p *Pipeline) Run(filterReq model.Request, buildRankReq func(survivors []int) (model.Request, error)) ([]Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if filterReq.Batch < p.FilterTo {
		return nil, fmt.Errorf("rank: %d candidates, need at least FilterTo=%d", filterReq.Batch, p.FilterTo)
	}
	survivors := TopK(p.Filter.CTR(filterReq), p.FilterTo)
	idx := make([]int, len(survivors))
	for i, s := range survivors {
		idx[i] = s.Index
	}

	rankReq, err := buildRankReq(idx)
	if err != nil {
		return nil, fmt.Errorf("rank: building ranking request: %w", err)
	}
	if rankReq.Batch != p.FilterTo {
		return nil, fmt.Errorf("rank: ranking request batch %d, want %d", rankReq.Batch, p.FilterTo)
	}
	final := TopK(p.Ranker.CTR(rankReq), p.ServeTo)
	out := make([]Result, len(final))
	for i, f := range final {
		out[i] = Result{Index: idx[f.Index], Score: f.Score}
	}
	return out, nil
}
