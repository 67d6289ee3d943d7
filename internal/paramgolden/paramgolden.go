// Package paramgolden pins what each front end — fgd, the soak worker,
// fgsort and fgexp — compiles a job description to: the data fields of
// harness.Params, against one checked-in golden file. Only tests import it.
// The golden file changes only when a compile's output is meant to.
package paramgolden

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/pdm"
)

// GOMAXPROCS is the kernel width the golden file was written at: the
// default auto-tuner's ceiling follows it, so tests pin it while they
// compile.
const GOMAXPROCS = 4

// fields is the data part of a harness.Params: machine, workload, tuning
// and resilience settings, without hooks or live objects.
type fields struct {
	Nodes, RecordSize, ColumnsPerNode, Parallelism, Supervise int
	TotalRecords, Seed                                        int64
	Disk                                                      pdm.DiskModel
	Network                                                   cluster.NetworkModel
	AutoTune                                                  fg.AutoTune
	Health                                                    cluster.HealthConfig
	TelemetryInterval, TelemetryStale                         time.Duration
	Verify, CheckpointDir                                     bool
	Transport                                                 string
}

// Check fails t unless pr's data fields equal the golden entry key.
func Check(t testing.TB, key string, pr harness.Params) {
	t.Helper()
	_, file, _, _ := runtime.Caller(0)
	raw, err := os.ReadFile(filepath.Join(filepath.Dir(file), "testdata", "params.golden.json"))
	var golden map[string]fields
	if err == nil {
		err = json.Unmarshal(raw, &golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	got := fields{pr.Nodes, pr.RecordSize, pr.ColumnsPerNode, pr.Parallelism, pr.Supervise,
		pr.TotalRecords, pr.Seed, pr.Disk, pr.Network, pr.AutoTune, pr.Health,
		pr.Telemetry.Interval, pr.Telemetry.StaleAfter, pr.Verify, pr.CheckpointDir != "", pr.Transport.Kind}
	if want, ok := golden[key]; !ok || got != want {
		t.Errorf("%s compiles to\n  %+v\nwant (golden entry present: %v)\n  %+v", key, got, ok, want)
	}
}
