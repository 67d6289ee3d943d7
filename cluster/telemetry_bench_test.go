package cluster

import (
	"encoding/json"
	"testing"
	"time"
)

// BenchmarkTelemetryOverhead pins the telemetry plane's cost at its three
// seams. The "off" case is the contract that matters most: a telemetry-
// tagged frame entering deliverLocal on a process with no plane running —
// the whole price the plane charges the data path is one sign compare and
// a nil atomic load, and it must stay allocation-free. "publish" is one
// full snapshot-and-ingest of every local rank (the per-interval cost of
// the publisher goroutine, aggregator-local). "ingest" is the aggregator
// decoding and storing one remote rank's wire record, the per-record cost
// on a transport read goroutine.
func BenchmarkTelemetryOverhead(b *testing.B) {
	// An interval long enough that the plane's own ticker never fires
	// during the benchmark: only the measured calls touch it.
	idle := TelemetryConfig{Interval: time.Hour}

	b.Run("off", func(b *testing.B) {
		c := New(Config{Nodes: 2})
		defer c.Close()
		f := Frame{Src: 1, Dst: 0, Tag: telemetryTag}
		settle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.deliverLocal(f, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("publish", func(b *testing.B) {
		c := New(Config{Nodes: 2})
		defer c.Close()
		tel, err := c.StartTelemetry(idle)
		if err != nil {
			b.Fatal(err)
		}
		settle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tel.publish(1)
		}
	})

	b.Run("ingest", func(b *testing.B) {
		c := New(Config{Nodes: 2})
		defer c.Close()
		if _, err := c.StartTelemetry(idle); err != nil {
			b.Fatal(err)
		}
		rec := RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1 << 40, Program: "bench"}
		data, err := json.Marshal(&rec)
		if err != nil {
			b.Fatal(err)
		}
		f := Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: data}
		settle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.deliverLocal(f, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
