package service

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/paramgolden"
)

// TestJobParamsGolden: every examples/jobspecs file compiles, through the
// daemon's compile (with and without a worker quota), to the
// harness.Params data fields the golden file pins.
func TestJobParamsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(paramgolden.GOMAXPROCS))
	paths, err := filepath.Glob(filepath.Join("..", "examples", "jobspecs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example job specs: %v", err)
	}
	for key, cfg := range map[string]Config{
		"fgd":             {},
		"fgd-maxworkers2": {Limits: Limits{MaxWorkers: 2}},
	} {
		s := New(cfg)
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := decodeJobSpec(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			pr, cleanup, err := s.params(newJob("golden", spec, time.Now()))
			if err != nil {
				t.Fatal(err)
			}
			cleanup()
			paramgolden.Check(t, key+"/"+filepath.Base(p), pr)
		}
		s.Close()
	}
}
