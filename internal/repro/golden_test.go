package repro

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentsGolden compares the two experiments that sit on the
// shared replacement core (ext-cache) and the shared worker-pool loop
// (ext-batching) with their rendering at seed 42, byte for byte.
// TestAllExperimentsDeterministic only compares a run with itself (and
// skips ext-cache), so it cannot see a refactor that moves every run
// the same way. Regenerate with UPDATE_GOLDEN=1 only for an intended
// change of the numbers, and review the diff.
func TestExperimentsGolden(t *testing.T) {
	for _, id := range []string{"ext-cache", "ext-batching"} {
		t.Run(id, func(t *testing.T) {
			got, err := Run(id, 42)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
