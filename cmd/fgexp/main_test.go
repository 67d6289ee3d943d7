package main

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"github.com/fg-go/fg/internal/paramgolden"
)

// TestParamsGolden: fgexp's flags compile to the harness.Params data
// fields the golden file pins.
func TestParamsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(paramgolden.GOMAXPROCS))
	for _, args := range [][]string{
		{},
		{"-autotune", "-supervise", "3"},
		{"-transport", "tcp", "-heartbeat", "50ms", "-checkpoint-dir", "ckpt", "-telemetry-interval", "100ms",
			"-nodes", "4", "-records", "16", "-cpn", "2", "-seed", "7", "-parallelism", "2", "-verify=false"},
	} {
		pr, _, cli, err := parseFlags(flag.NewFlagSet("fgexp", flag.ContinueOnError), args)
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
		paramgolden.Check(t, "fgexp/"+strings.Join(args, " "), pr)
	}
}
