package workload

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capred/internal/trace"
)

var updateDigest = flag.Bool("update", false,
	"rewrite testdata/stream.golden from the current generator")

// digestEvents is the stream length each digest covers.
const digestEvents = 20_000

// longBurst emits one burst far longer than any roster behaviour's, mixing
// every event kind with dependencies that reach back across it, so the
// digest also covers a refill buffer that has to grow mid-burst.
type longBurst struct {
	ipBase uint32
	base   uint32
	tick   uint32
}

func (b *longBurst) step(g *Generator) {
	const iters = 700 // 7 events per iteration: 4900 events per burst
	first := g.alu(b.ipBase, -1, -1, 3)
	prev := first
	for i := uint32(0); i < iters; i++ {
		addr := b.base + 4*((i*7+b.tick)%512)
		ld := g.load(b.ipBase+4, addr, int32(i%16)-8, prev)
		ld2 := g.loadVal(b.ipBase+8, addr+64, 64, ld, i^b.tick)
		prev = g.alu(b.ipBase+12, ld, ld2, uint8(1+i%4))
		g.store(b.ipBase+16, addr+128, -4, first)
		g.branch(b.ipBase+20, b.ipBase+4, i%3 != 0, prev)
		if i%2 == 0 {
			g.call(b.ipBase+24, b.ipBase+64)
		} else {
			g.ret(b.ipBase+68, b.ipBase+28)
		}
	}
	b.tick++
}

func (b *longBurst) loadsPerBurst() int { return 2 * 700 }

// digestSpec is one stream the digest golden pins: every roster trace,
// plus a synthetic one built around longBurst.
type digestSpec struct {
	name string
	open func() *Generator
}

func digestSpecs() []digestSpec {
	var specs []digestSpec
	for _, s := range Traces() {
		s := s
		specs = append(specs, digestSpec{s.Name, func() *Generator { return s.Open().(*Generator) }})
	}
	specs = append(specs, digestSpec{"long_burst", func() *Generator {
		g := NewGenerator(0x5eed)
		g.Add(&longBurst{ipBase: g.ipBlock(32), base: g.heap.Alloc(4096)}, 1)
		g.Add(NewArrayWalk(g, 300, 4, 8), 2)
		return g
	}})
	return specs
}

// eventHasher folds events, field by field, into a 64-bit FNV-1a digest.
type eventHasher struct {
	buf []byte
}

func (h *eventHasher) add(ev trace.Event) {
	taken := uint8(0)
	if ev.Taken {
		taken = 1
	}
	h.buf = append(h.buf, uint8(ev.Kind), taken, ev.Lat)
	for _, v := range [...]uint32{ev.IP, ev.Addr, ev.Val, uint32(ev.Offset), ev.Src1, ev.Src2} {
		h.buf = binary.LittleEndian.AppendUint32(h.buf, v)
	}
}

func (h *eventHasher) sum() uint64 {
	f := fnv.New64a()
	f.Write(h.buf)
	return f.Sum64()
}

// digestNext hashes the first n events Next returns.
func digestNext(t *testing.T, g *Generator, n int) uint64 {
	t.Helper()
	var h eventHasher
	for i := 0; i < n; i++ {
		ev, ok := g.Next()
		if !ok {
			t.Fatalf("Next ended after %d events", i)
		}
		h.add(ev)
	}
	return h.sum()
}

// digestBlocks hashes the first n events NextBlock delivers at the given
// block size, gathered back with Block.Event.
func digestBlocks(t *testing.T, g *Generator, n, max int) uint64 {
	t.Helper()
	var h eventHasher
	b := trace.NewBlock(max)
	for got := 0; got < n; {
		k := min(max, n-got)
		m, ok := g.NextBlock(b, k)
		if m != k || b.Len() != k || !ok {
			t.Fatalf("NextBlock(%d) = (%d, %v), block len %d", k, m, ok, b.Len())
		}
		for i := 0; i < m; i++ {
			h.add(b.Event(i))
		}
		got += m
	}
	return h.sum()
}

// TestStreamDigestGolden pins every roster trace's event stream, and one
// with a burst longer than any roster behaviour's, to the digests in
// testdata/stream.golden, through both Next and NextBlock. Unlike the
// self-comparing determinism tests, it catches a generator change that
// alters the stream. Regenerate (only for a deliberate stream change) with:
//
//	go test ./internal/workload -run TestStreamDigestGolden -update
func TestStreamDigestGolden(t *testing.T) {
	path := filepath.Join("testdata", "stream.golden")
	var out strings.Builder
	for _, s := range digestSpecs() {
		fmt.Fprintf(&out, "%-10s %016x\n", s.name, digestNext(t, s.open(), digestEvents))
	}
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("Next stream drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	for _, max := range []int{1, 17, 1024} {
		var blocks strings.Builder
		for _, s := range digestSpecs() {
			fmt.Fprintf(&blocks, "%-10s %016x\n", s.name, digestBlocks(t, s.open(), digestEvents, max))
		}
		if got := blocks.String(); got != string(want) {
			t.Errorf("NextBlock(max %d) stream drifted from %s\n--- got ---\n%s--- want ---\n%s", max, path, got, want)
		}
	}
}
