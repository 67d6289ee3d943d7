// Quickstart: a single linear FG pipeline, the structure of Figures 1-2.
//
// The program processes an out-of-core "file" on a simulated disk in
// blocks: a read stage fetches each block, a compute stage transforms it,
// and a write stage stores the result — three stages, each in its own
// goroutine, overlapping the disk latency of reads and writes with the
// computation. A small pool of buffers circulates source -> stages -> sink
// -> source, so memory stays constant no matter how large the file is.
//
// Run it twice to see what FG buys: once with the default pool (overlapped)
// and once with -buffers 1 (stages serialized). The timeline printed at the
// end shows the difference: with overlap the three stages' bars run side
// by side, serialized they take turns.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/pdm"
)

func main() {
	var (
		blocks  = flag.Int("blocks", 64, "number of blocks to process")
		blockKB = flag.Int("block-kb", 64, "block size in KiB")
		buffers = flag.Int("buffers", 3, "pipeline buffer pool size (1 = no overlap)")
	)
	flag.Parse()

	// Two simulated disks — input on one, output on the other, as in a
	// copy between devices — each 2 ms positioning, 50 MB/s: slow enough
	// that overlap is visible to the naked eye. (A single disk would
	// serialize the reads and writes on its one head no matter how well
	// the pipeline overlaps them.)
	model := pdm.DiskModel{SeekLatency: 2 * time.Millisecond, BytesPerSecond: 50e6}
	in := pdm.NewDisk(model)
	out := pdm.NewDisk(model)
	blockBytes := *blockKB << 10
	data := make([]byte, blockBytes)
	for i := 0; i < *blocks; i++ {
		for j := range data {
			data[j] = byte('a' + (i+j)%26)
		}
		in.Import(fmt.Sprintf("in.%d", i), data)
	}

	tr := fg.NewTracer(0)
	nw := fg.NewNetwork("quickstart")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main",
		fg.Buffers(*buffers), fg.BufferBytes(blockBytes), fg.Rounds(*blocks))

	p.AddStage("read", func(ctx *fg.Ctx, b *fg.Buffer) error {
		b.N = blockBytes
		return in.ReadAt(fmt.Sprintf("in.%d", b.Round), b.Data[:b.N], 0)
	})
	p.AddStage("compute", func(ctx *fg.Ctx, b *fg.Buffer) error {
		for i, c := range b.Bytes() { // uppercase the block
			if 'a' <= c && c <= 'z' {
				b.Data[i] = c - 'a' + 'A'
			}
		}
		return nil
	})
	p.AddStage("write", func(ctx *fg.Ctx, b *fg.Buffer) error {
		return out.WriteAt(fmt.Sprintf("out.%d", b.Round), b.Bytes(), 0)
	})

	start := time.Now()
	if err := nw.Run(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("processed %d blocks of %d KiB with %d buffers in %v\n",
		*blocks, *blockKB, *buffers, elapsed.Round(time.Millisecond))
	fmt.Printf("input disk busy %v, output disk busy %v\n",
		in.Stats().Busy.Round(time.Millisecond), out.Stats().Busy.Round(time.Millisecond))
	fmt.Println()
	fmt.Print(nw.Stats())
	fmt.Println()
	fmt.Print(tr.Gantt(70))
	fmt.Println("\nTry -buffers 1: with a single buffer the three stages can never")
	fmt.Println("work concurrently, and the run takes roughly the sum of the two")
	fmt.Println("disks' busy times instead of their maximum.")
}
