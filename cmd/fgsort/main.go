// Command fgsort runs one out-of-core sort — dsort, csort, or the
// single-linear-pipeline dsort variant — on a simulated cluster, prints the
// per-pass timings and traffic, and verifies the output.
//
// Usage:
//
//	fgsort -program dsort -nodes 16 -records 20 -dist poisson
//
// With -transport tcp the ranks talk over real sockets, and -peers/-rank
// place each rank in its own OS process:
//
//	fgsort -program csort -nodes 2 -transport tcp -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001 &
//	fgsort -program csort -nodes 2 -transport tcp -rank 1 -peers 127.0.0.1:7000,127.0.0.1:7001
//
// Adding -heartbeat, -checkpoint-dir, and -supervise makes a multi-process
// run survive node death: a kill -9'd rank is detected by heartbeats, the
// surviving ranks' supervisors retry, and a relaunched replacement rank
// resumes from the last pass-level checkpoint (see EXPERIMENTS.md for a
// full recipe).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/workload"
)

func main() {
	// A/B escape hatch for the queue layer (see EXPERIMENTS.md): force the
	// channel-backed queue build instead of lock-free SPSC rings.
	if os.Getenv("FGSORT_CHANNEL_QUEUES") != "" {
		fg.UseChannelQueues(true)
	}

	pr, cli, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	finish, err := cli.Observe(&pr)
	if err != nil {
		log.Fatal(err)
	}

	spec := cli.Spec
	res, err := pr.Run(harness.Program(spec.Program), spec.Dist(), spec.Buffers)
	// Let finish write the trace and black box before a failed run exits.
	if ferr := finish(err); ferr != nil {
		log.Fatal(ferr)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if pr.Verify {
		fmt.Println("output verified: globally sorted, PDM-striped, permutation of input")
	}
	data := pr.TotalRecords * int64(pr.RecordSize)
	fmt.Printf("disk:    %d ops, %d bytes (%.2fx the data), head busy %v\n",
		res.Disk.ReadOps+res.Disk.WriteOps, res.Disk.TotalBytes(),
		float64(res.Disk.TotalBytes())/float64(data), res.Disk.Busy.Round(time.Millisecond))
	fmt.Printf("network: %d messages, %d bytes sent, NICs busy %v, blocked sending %v / receiving %v\n",
		res.Comm.MessagesSent, res.Comm.BytesSent, res.Comm.SendBusy.Round(time.Millisecond),
		res.Comm.SendWait.Round(time.Millisecond), res.Comm.RecvWait.Round(time.Millisecond))
}

// parseFlags compiles an fgsort command line: the job flags fill the
// shared CLIFlags' spec, compiled onto harness.DefaultParams; the
// per-process flags (-disk-seek, -disk-bw, -peers, -rank) apply on top. The
// observability flags are left to the returned CLIFlags' Observe.
func parseFlags(fs *flag.FlagSet, args []string) (harness.Params, *harness.CLIFlags, error) {
	cli := harness.RegisterCLIFlags(fs)
	sp := &cli.Spec
	fs.StringVar(&sp.Program, "program", "dsort", "dsort, csort, or dsort-linear")
	fs.IntVar(&sp.RecordSize, "record-size", 16, "record size in bytes (>= 8)")
	fs.StringVar(&sp.Distribution, "dist", "uniform", "key distribution: uniform, all-equal, normal, poisson, skew-one-node, skew-zipf")
	fs.IntVar(&sp.ColumnsPerNode, "cpn", 2, "csort columns per node")
	fs.IntVar(&sp.Buffers, "buffers", 0, "per-pipeline buffer pool (0 = program default)")
	var (
		logRecs  = fs.Int("records", 18, "log2 of total records N")
		diskSeek = fs.Duration("disk-seek", 0, "override the simulated disk's per-op seek latency; in a multi-process run this is per-rank, so a slow rank 1 is just rank 1's process run with a bigger value (0 = model default)")
		diskBW   = fs.Float64("disk-bw", 0, "override the simulated disk's sequential transfer rate in bytes/second, per-rank like -disk-seek (0 = model default)")
		rank     = fs.Int("rank", -1, "with -transport tcp and -peers: this process's rank; each rank runs its own fgsort process")
		peersArg = fs.String("peers", "", "with -transport tcp: comma-separated host:port listen address per rank (the same list in every process); empty runs all ranks in-process over loopback")
	)
	if err := fs.Parse(args); err != nil {
		return harness.Params{}, nil, err
	}
	if _, err := workload.ParseDistribution(sp.Distribution); err != nil {
		return harness.Params{}, nil, err
	}
	sp.Records = 1 << *logRecs
	pr, err := cli.Params()
	if err != nil {
		return harness.Params{}, nil, fmt.Errorf("fgsort: %w", err)
	}
	if *diskSeek > 0 {
		pr.Disk.SeekLatency = *diskSeek
	}
	if *diskBW > 0 {
		pr.Disk.BytesPerSecond = *diskBW
	}
	switch {
	case pr.Transport.Kind != cluster.TransportTCP:
		if *peersArg != "" || *rank >= 0 {
			return harness.Params{}, nil, errors.New("fgsort: -peers and -rank require -transport tcp")
		}
	case *peersArg != "":
		if *rank < 0 {
			return harness.Params{}, nil, errors.New("fgsort: -peers needs -rank to say which address is this process")
		}
		pr.Transport.Peers = strings.Split(*peersArg, ",")
		pr.Transport.Rank = *rank
	case *rank >= 0:
		return harness.Params{}, nil, errors.New("fgsort: -rank without -peers; a single process hosts every rank")
	}
	return pr, cli, nil
}
