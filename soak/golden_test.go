package soak

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/fg-go/fg/internal/paramgolden"
)

// TestWorkerParamsGolden: every builtin scenario compiles, through the
// worker's compile, to the harness.Params data fields the golden file pins.
func TestWorkerParamsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(paramgolden.GOMAXPROCS))
	for _, name := range BuiltinNames() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := WorkerConfig{Scenario: s, Rank: 1}
		for r := 0; r < s.Nodes; r++ {
			cfg.Peers = append(cfg.Peers, fmt.Sprintf("127.0.0.1:%d", 7000+r))
		}
		if s.Checkpoint {
			cfg.CheckpointDir = "ckpt"
		}
		paramgolden.Check(t, "soak/"+name+".json", workerParams(cfg))
	}
}
