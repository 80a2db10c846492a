package ecoscale_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"ecoscale/internal/experiments"
	"ecoscale/internal/runner"
)

// TestTablesMatchReference regenerates every scenario's table and
// compares its SHA-256 with the digest perfbench recorded for it in
// perfbench/reference.json, with points run one at a time and four at a
// time. The test only reads the file; `perfbench --record` is its one
// writer, so a change that means to move a table re-records the
// reference on purpose.
func TestTablesMatchReference(t *testing.T) {
	b, err := os.ReadFile("perfbench/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Esuite map[string]string `json:"esuite"`
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatalf("perfbench/reference.json: %v", err)
	}
	scens := experiments.Registry()
	ids := map[string]bool{}
	for _, s := range scens {
		ids[s.ID] = true
		if ref.Esuite[s.ID] == "" {
			t.Errorf("%s has no reference digest", s.ID)
		}
	}
	for id := range ref.Esuite {
		if !ids[id] {
			t.Errorf("reference digest for %s, which is not a registered scenario", id)
		}
	}
	for _, parallel := range []int{1, 4} {
		for _, s := range scens {
			tbl, err := runner.Run(context.Background(), s, runner.Options{Parallel: parallel})
			if err != nil {
				t.Errorf("%s at Parallel %d: %v", s.ID, parallel, err)
				continue
			}
			sum := sha256.Sum256([]byte(tbl.String()))
			if got, want := hex.EncodeToString(sum[:]), ref.Esuite[s.ID]; got != want {
				t.Errorf("%s at Parallel %d: table digest %s, reference %s", s.ID, parallel, got, want)
			}
		}
	}
}
