package soak

import (
	"io/fs"
	"strings"
	"testing"
)

// FuzzScenarioPlan holds the scenario decoder to its contract: whatever the
// bytes — truncated JSON, wrong types, hostile numbers — DecodeScenario
// must return an error or a valid scenario, never panic. Scenario files
// cross the trust boundary between a repo and its CI; a plan that crashes
// the driver is a denial of the very service that proves resilience. Seeds
// are every checked-in plan plus the malformations the strict decoder is
// documented to reject.
func FuzzScenarioPlan(f *testing.F) {
	entries, err := fs.ReadDir(builtinFS, "scenarios")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := fs.ReadFile(builtinFS, "scenarios/"+e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"name": "x", "nodes": 2, "program": "dsort", "records": 4096}`)
	f.Add(`{"name": "x", "nodes": 1e9, "program": "dsort", "records": -1}`)
	f.Add(`{"name": "x", "unknown": {"deeply": ["nested"]}}`)
	f.Add(`{"faults": [{"kind": "kill-op", "rank": 99999999999999999999}]}`)
	f.Add(`{} {}`)
	f.Add(`[`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := DecodeScenario(strings.NewReader(doc))
		if err != nil {
			return
		}
		// The job part's invariants are FuzzJobSpec's; spot-check the
		// soak-only ones the driver leans on hardest.
		for _, fl := range s.Faults {
			if fl.Rank < -1 || fl.Rank >= s.Nodes {
				t.Fatalf("fault rank %d outside %d-rank cluster", fl.Rank, s.Nodes)
			}
			if fl.Rank == 0 && (fl.Kind == FaultKillOp || fl.Kind == FaultKillAfter) {
				t.Fatalf("decoded a plan that kills rank 0")
			}
		}
		if s.trials() < 1 {
			t.Fatalf("decoded scenario with %d trials", s.trials())
		}
	})
}
