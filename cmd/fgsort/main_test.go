package main

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"github.com/fg-go/fg/internal/paramgolden"
)

// TestParamsGolden: fgsort's flags compile to the harness.Params data
// fields the golden file pins.
func TestParamsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(paramgolden.GOMAXPROCS))
	for _, args := range [][]string{
		{},
		{"-disk-seek", "1ms", "-disk-bw", "2e6", "-autotune", "-supervise", "3"},
		{"-transport", "tcp", "-heartbeat", "50ms", "-checkpoint-dir", "ckpt", "-telemetry-interval", "100ms",
			"-nodes", "4", "-records", "16", "-record-size", "64", "-cpn", "1", "-seed", "7", "-parallelism", "2", "-verify=false"},
	} {
		pr, cli, err := parseFlags(flag.NewFlagSet("fgsort", flag.ContinueOnError), args)
		if err != nil {
			t.Fatal(err)
		}
		finish, err := cli.Observe(&pr)
		if err != nil {
			t.Fatal(err)
		}
		if err := finish(nil); err != nil {
			t.Fatal(err)
		}
		paramgolden.Check(t, "fgsort/"+strings.Join(args, " "), pr)
	}
}
