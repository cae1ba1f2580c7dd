package scenario

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"recsys/internal/engine"
	"recsys/internal/model"
)

// FreshCopy round-trips a model through the checkpoint format, which
// carries its tables as they are held — "a freshly loaded copy" in the
// acceptance criteria's words. Scores from the copy must be bitwise
// identical to the original's on the hot path.
func FreshCopy(m *model.Model) (*model.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return model.Load(&buf, int64(buf.Len()))
}

// Metrics is a parsed Prometheus exposition: "name{label="v"}" → value.
type Metrics map[string]float64

// Get returns the value of an exact series string, e.g.
// `recsys_online_rollbacks_total{model="m"}`.
func (m Metrics) Get(series string) (float64, bool) {
	v, ok := m[series]
	return v, ok
}

// ParseMetrics parses Prometheus text exposition into series → value.
func ParseMetrics(text string) (Metrics, error) {
	out := make(Metrics)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("scenario: unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// ScrapeEngine renders the engine's full exposition (including writers
// added via AddMetricsWriter) and parses it.
func ScrapeEngine(e *engine.Engine) (Metrics, error) {
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	return ParseMetrics(buf.String())
}
