// Command fgsoak is the cluster-scale soak and stress driver: it spawns a
// scenario's ranks as real OS processes over loopback TCP, injects the
// plan's faults (disk latency, dropped frames, partitions, kill -9), admits
// replacement processes, and verifies every run end to end. Two modes:
//
//	fgsoak -smoke                         # the 2-rank kill-and-recover staple, every CI run
//	fgsoak -soak                          # every builtin scenario, -trials times, nightly
//	fgsoak -scenario soak/scenarios/x.json  # one scenario file
//	fgsoak -scenario partition-heal         # one builtin, by name
//	fgsoak -list                            # what's checked in
//
// Reports: -out writes the full JSON run report, -history appends a
// benchmark-shaped line (BenchmarkSoak/<scenario>) to BENCH_history.jsonl
// so cmd/benchgate's trend mode watches soak wall clocks alongside kernel
// ns/op. Exit status is the verdict: 0 only if every trial of every
// scenario passed.
//
// The spawned workers are this same binary, re-entered through
// soak.WorkerMain via the FGSOAK_WORKER_CONFIG environment variable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/fg-go/fg/soak"
)

func main() {
	if soak.IsWorker() {
		os.Exit(soak.WorkerMain())
	}

	smoke := flag.Bool("smoke", false, "run the builtin smoke scenario (seconds; every CI run)")
	soakAll := flag.Bool("soak", false, "run every builtin scenario (minutes; nightly)")
	scenario := flag.String("scenario", "", "run one scenario: a file path or a builtin name")
	list := flag.Bool("list", false, "list builtin scenarios and exit")
	trials := flag.Int("trials", 0, "override each scenario's trial count")
	ranks := flag.Int("ranks", 0, "override each scenario's rank count (faults must still fit)")
	out := flag.String("out", "", "write the JSON run report(s) here (\"-\" = stdout)")
	history := flag.String("history", "", "append benchmark-shaped result lines to this history file (e.g. BENCH_history.jsonl)")
	label := flag.String("label", "soak", "label for appended history entries")
	runDir := flag.String("run-dir", "", "root run artifacts here instead of a temp dir (kept for post-mortems)")
	quiet := flag.Bool("q", false, "suppress progress lines; print only verdicts")
	flag.Parse()

	if *list {
		for _, name := range soak.BuiltinNames() {
			s, err := soak.Builtin(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fgsoak: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-20s %d ranks, %s, %d records; %s\n",
				s.Name, s.Nodes, s.Program, s.Records, firstSentence(s.Description))
		}
		return
	}

	var scenarios []soak.Scenario
	load := func(name string) soak.Scenario {
		var s soak.Scenario
		var err error
		if strings.ContainsAny(name, "/.") {
			s, err = soak.LoadScenario(name)
		} else {
			s, err = soak.Builtin(name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgsoak: %v\n", err)
			os.Exit(1)
		}
		return s
	}
	switch {
	case *smoke:
		scenarios = append(scenarios, load("smoke"))
	case *soakAll:
		for _, name := range soak.BuiltinNames() {
			if name == "smoke" {
				continue // the smoke staple is subsumed by rank-death-midpass
			}
			scenarios = append(scenarios, load(name))
		}
	case *scenario != "":
		scenarios = append(scenarios, load(*scenario))
	default:
		fmt.Fprintln(os.Stderr, "fgsoak: pick a mode: -smoke, -soak, -scenario, or -list")
		os.Exit(2)
	}

	opt := soak.Options{
		RunDir:     *runDir,
		KeepRunDir: *runDir != "",
		Trials:     *trials,
		Log:        os.Stderr,
	}
	if *quiet {
		opt.Log = nil
	}

	allOK := true
	for _, s := range scenarios {
		if *ranks > 0 {
			s.Nodes = *ranks
			if err := s.Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "fgsoak: -ranks %d: %v\n", *ranks, err)
				os.Exit(2)
			}
		}
		rep, err := soak.Run(s, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgsoak: %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		fmt.Println(rep.Summary())
		if !rep.OK {
			allOK = false
		}
		if *out != "" {
			path := *out
			if path != "-" && len(scenarios) > 1 {
				path = perScenario(path, s.Name)
			}
			if err := rep.WriteJSON(path); err != nil {
				fmt.Fprintf(os.Stderr, "fgsoak: write report: %v\n", err)
				os.Exit(1)
			}
		}
		if *history != "" {
			appended, err := rep.AppendHistory(*history, *label)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fgsoak: append history: %v\n", err)
				os.Exit(1)
			}
			if appended {
				fmt.Printf("history: %s << %s\n", *history, rep.BenchLine())
			}
		}
	}
	if !allOK {
		os.Exit(1)
	}
}

// perScenario derives a per-scenario report path from the -out template:
// reports/soak.json -> reports/soak.partition-heal.json.
func perScenario(path string, name string) string {
	if dot := strings.LastIndex(path, "."); dot > strings.LastIndex(path, "/") {
		return path[:dot] + "." + name + path[dot:]
	}
	return fmt.Sprintf("%s.%s", path, name)
}

func firstSentence(s string) string {
	if i := strings.Index(s, ". "); i > 0 {
		return s[:i+1]
	}
	if len(s) > 100 {
		return s[:100] + "..."
	}
	return s
}
