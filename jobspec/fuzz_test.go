package jobspec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJobSpec holds the job-spec decoder to its contract: whatever the
// bytes — truncated JSON, wrong types, hostile numbers — Decode must
// return an error or a valid spec, never panic. Specs cross the trust
// boundary between a client and the daemon; a spec that crashes fgd is a
// denial of service for every tenant. Seeds are the checked-in fgd
// examples, the job part of every builtin soak scenario, and the
// malformations the strict decoder is documented to reject.
func FuzzJobSpec(f *testing.F) {
	for _, doc := range seedDocs(f) {
		f.Add(doc)
	}
	f.Add(`{"program": "dsort", "nodes": 2, "records": 4096}`)
	f.Add(`{"program": "dsort", "nodes": 1e9, "records": -1}`)
	f.Add(`{"program": "dsort", "unknown": {"deeply": ["nested"]}}`)
	f.Add(`{"fault": {"kind": "panic-op", "rank": 99999999999999999999}}`)
	f.Add(`{"disk": {"seek_latency_us": -9e99}}`)
	f.Add(`{} {}`)
	f.Add(`[`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := Decode[Spec](strings.NewReader(doc), "job spec")
		if err != nil {
			return
		}
		// Validate already ran inside Decode; spot-check the invariants
		// the daemon and the soak driver lean on hardest.
		if s.Nodes < 2 || s.Nodes > 64 {
			t.Fatalf("decoded spec with %d nodes", s.Nodes)
		}
		if s.Records <= 0 {
			t.Fatalf("decoded spec with %d records", s.Records)
		}
		if s.Records%int64(s.Nodes*s.EffectiveColumnsPerNode()) != 0 {
			t.Fatalf("decoded spec with indivisible records")
		}
		if f := s.Fault; f != nil && (f.Rank < 0 || f.Rank >= s.Nodes) {
			t.Fatalf("decoded fault rank %d outside %d-node job", f.Rank, s.Nodes)
		}
		if s.Bytes() <= 0 {
			t.Fatalf("decoded spec with non-positive byte volume %d", s.Bytes())
		}
	})
}

// seedDocs returns every examples/jobspecs file and the job part of every
// soak/scenarios file (the scenario-only keys stripped).
func seedDocs(tb testing.TB) []string {
	var docs []string
	for _, dir := range []string{"examples/jobspecs", "soak/scenarios"} {
		paths, err := filepath.Glob(filepath.Join("..", dir, "*.json"))
		if err != nil || len(paths) == 0 {
			tb.Fatalf("no seeds under %s: %v", dir, err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			if dir == "soak/scenarios" {
				var doc map[string]json.RawMessage
				if err := json.Unmarshal(raw, &doc); err != nil {
					tb.Fatal(err)
				}
				for _, k := range []string{"description", "trials", "heartbeat", "telemetry", "faults"} {
					delete(doc, k)
				}
				if raw, err = json.Marshal(doc); err != nil {
					tb.Fatal(err)
				}
			}
			docs = append(docs, string(raw))
		}
	}
	return docs
}

// TestSeedsDecode: every seed document — the fgd examples and the job
// part of every builtin scenario — is a valid spec.
func TestSeedsDecode(t *testing.T) {
	for _, doc := range seedDocs(t) {
		if _, err := Decode[Spec](strings.NewReader(doc), "job spec"); err != nil {
			t.Errorf("%v\n%s", err, doc)
		}
	}
}
