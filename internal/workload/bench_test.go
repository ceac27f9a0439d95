package workload

import (
	"bytes"
	"testing"

	"capred/internal/trace"
)

// The drain benchmarks compare the three ways a driver can consume one
// trace's events: re-running the workload generator (what every open
// cost before the replay cache), decoding the cached encoding through
// the io.Reader-based file decoder, and a replay cursor over the
// resident columns. The cursor must beat the generator for the cache
// to pay off — a cache that replays slower than regeneration is pure
// memory overhead.

const benchEvents = 400_000

func openGen() trace.Source {
	spec, _ := ByName("INT_go")
	return trace.NewLimit(spec.Open(), benchEvents)
}

func drain(b *testing.B, src trace.Source, blk *trace.Block) {
	b.Helper()
	bs := trace.AsBlocks(src)
	for {
		_, ok := bs.NextBlock(blk, trace.BlockLen)
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDrainGenerator(b *testing.B) {
	b.ReportAllocs()
	blk := trace.NewBlock(trace.BlockLen)
	for i := 0; i < b.N; i++ {
		drain(b, openGen(), blk)
	}
}

func BenchmarkDrainCachedReader(b *testing.B) {
	var enc bytes.Buffer
	w := trace.NewWriter(&enc)
	if _, err := trace.Copy(w, openGen()); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := enc.Bytes()
	blk := trace.NewBlock(trace.BlockLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, trace.NewReader(bytes.NewReader(data)), blk)
	}
}

func BenchmarkDrainReplayCursor(b *testing.B) {
	c := trace.NewReplayCache(0)
	open := func() trace.Source { return openGen() }
	c.Open("k", open) // materialise once, outside the timed region
	blk := trace.NewBlock(trace.BlockLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, c.Open("k", open), blk)
	}
}
