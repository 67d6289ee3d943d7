package main

import (
	"math"
	"sort"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/oocsort"
)

// A metric is one reported figure, as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (a test holds the two in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the figures a user of the system sees, reported by every
// workload when tracing is off. On the sort workloads a "job" is one
// iteration (a verified dsort and a verified csort, each with its own
// set-up); on fgd-small-jobs it is one service job.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"dsort_s", "s"},
	{"csort_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
}

// programStages are the FG stages each sorting program builds, by the
// network-name prefix its passes use (dsort.p1@rank, csort.p3@rank, ...).
var programStages = []struct {
	program string
	stages  []string
}{
	{"dsort", []string{"read", "permute", "send", "receive", "sort", "write", "merge"}},
	{"csort", []string{"read", "sort", "communicate", "permute", "write", "shift", "merge", "send-top", "assemble"}},
}

// passNames are the passes each program reports in oocsort.Result, by
// the module that implements it.
var passNames = []struct {
	program, module string
	passes          []string
}{
	{"dsort", "dsort", []string{"sampling", "pass1", "pass2"}},
	{"csort", "colsort", []string{"pass1", "pass2", "pass3"}},
}

// perLayer lists the per-layer metrics every workload measures; the
// traced run's result line carries exactly these.
func perLayer() []metricDef {
	var defs []metricDef
	for _, p := range passNames {
		for _, pass := range p.passes {
			defs = append(defs, metricDef{p.module + "." + pass + "_s", "s"})
		}
	}
	for _, p := range programStages {
		pre := p.program + "."
		defs = append(defs,
			metricDef{"pdm." + pre + "busy_frac", "ratio"},
			metricDef{"pdm." + pre + "ops", "count"},
			metricDef{"pdm." + pre + "bytes_per_data_byte", "ratio"},
			metricDef{"cluster." + pre + "msgs", "count"},
			metricDef{"cluster." + pre + "bytes_per_data_byte", "ratio"},
			metricDef{"cluster." + pre + "send_wait_s", "s"},
			metricDef{"cluster." + pre + "recv_wait_s", "s"},
		)
		for _, st := range p.stages {
			defs = append(defs,
				metricDef{"fg." + pre + st + ".work_s", "s"},
				metricDef{"fg." + pre + st + ".wait_s", "s"})
		}
		defs = append(defs, metricDef{"fg." + pre + "rounds", "count"})
	}
	return append(defs,
		metricDef{"check.verify_s", "s"},
		metricDef{"runtime.cpu_s", "s"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"trace.overhead", "ratio"},
	)
}

// workloadLayer lists the per-layer times only some workloads measure:
// elsewhere they would read 0 on every run (no daemon on the sort
// workloads, free devices on compute-bound, set-up inside the daemon on
// fgd-small-jobs). The traced run prints them, but keeps them out of its
// result line.
func workloadLayer() []metricDef {
	defs := []metricDef{
		{"oocsort.generate_s", "s"},
		{"cluster.open_s", "s"},
	}
	for _, p := range programStages {
		defs = append(defs,
			metricDef{"pdm." + p.program + ".busy_s", "s"},
			metricDef{"cluster." + p.program + ".nic_busy_s", "s"})
	}
	return append(defs,
		metricDef{"service.submit_s", "s"},
		metricDef{"service.queue_s", "s"},
		metricDef{"service.run_s", "s"},
		metricDef{"service.sort_s", "s"},
	)
}

// samples collects per-operation values by metric name; each reported
// figure is the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addDur(name string, d time.Duration) { s.add(name, d.Seconds()) }

// medians reduces every collected series to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = quantile(v, 0.5)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q = 0.5 is the median); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// addSortLayers records the per-layer figures of one completed sort: its
// passes, its pdm and cluster counters (summed over the cluster's nodes in
// res.Disk and res.Comm), and, when nets holds the sort's network
// snapshots, its FG stage statistics. Per-node times are cluster sums
// divided by the node count; counts are whole-cluster.
func addSortLayers(s samples, prog string, nodes int, dataBytes int64, res oocsort.Result, nets []fg.NetworkStats) {
	for _, p := range passNames {
		if p.program != prog {
			continue
		}
		for _, pass := range p.passes {
			s.addDur(p.module+"."+pass+"_s", res.Pass(pass))
		}
	}
	pre := prog + "."
	perNode := func(d time.Duration) float64 { return d.Seconds() / float64(nodes) }
	busy := perNode(res.Disk.Busy)
	s.add("pdm."+pre+"busy_s", busy)
	if wall := res.Total().Seconds(); wall > 0 {
		s.add("pdm."+pre+"busy_frac", busy/wall)
	}
	s.add("pdm."+pre+"ops", float64(res.Disk.ReadOps+res.Disk.WriteOps))
	s.add("pdm."+pre+"bytes_per_data_byte", float64(res.Disk.TotalBytes())/float64(dataBytes))
	s.add("cluster."+pre+"msgs", float64(res.Comm.MessagesSent))
	s.add("cluster."+pre+"bytes_per_data_byte", float64(res.Comm.BytesSent)/float64(dataBytes))
	s.add("cluster."+pre+"nic_busy_s", perNode(res.Comm.SendBusy))
	s.add("cluster."+pre+"send_wait_s", perNode(res.Comm.SendWait))
	s.add("cluster."+pre+"recv_wait_s", perNode(res.Comm.RecvWait))
	if len(nets) == 0 {
		return
	}
	work := map[string]time.Duration{}
	wait := map[string]time.Duration{}
	var rounds int64
	for _, nw := range nets {
		for _, st := range nw.Stages {
			work[st.Stage] += st.Work
			wait[st.Stage] += st.AcceptWait
		}
		for _, p := range nw.Pipelines {
			rounds += p.Rounds
		}
	}
	for _, p := range programStages {
		if p.program != prog {
			continue
		}
		for _, st := range p.stages {
			s.add("fg."+pre+st+".work_s", perNode(work[st]))
			s.add("fg."+pre+st+".wait_s", perNode(wait[st]))
		}
	}
	s.add("fg."+pre+"rounds", float64(rounds))
}
