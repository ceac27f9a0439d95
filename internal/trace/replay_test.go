package trace

import (
	"sync"
	"sync/atomic"
	"testing"
)

// drainAll pulls a source dry per-event and fails the test on a stream
// error.
func drainAll(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return out
}

// canonicalAll maps the stream through the codec's canonical form, the
// shape in which cached replays are expected to return events.
func canonicalAll(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = canonical(ev)
	}
	return out
}

// replayGens are the generator shapes materialise handles differently:
// a plain source whose columns grow by append, and a Limit whose columns
// are sized once from its remaining count.
var replayGens = []struct {
	name string
	wrap func(Source, int) Source
}{
	{"slice", func(src Source, _ int) Source { return src }},
	{"limit", func(src Source, n int) Source { return NewLimit(src, int64(n)) }},
}

func TestReplayCacheMaterialisesOnce(t *testing.T) {
	want := canonicalAll(testEvents(2000))
	for _, rg := range replayGens {
		var opens atomic.Int64
		gen := func() Source {
			opens.Add(1)
			return rg.wrap(NewSliceSource(want), len(want))
		}
		c := NewReplayCache(0)
		for i := 0; i < 5; i++ {
			got := drainAll(t, c.Open("k", gen))
			eventsEqual(t, got, want)
		}
		if n := opens.Load(); n != 1 {
			t.Fatalf("%s: generator opened %d times, want 1", rg.name, n)
		}
		st := c.Stats()
		if st.Entries != 1 || st.Hits != 5 || st.Misses != 0 || st.Rejected != 0 {
			t.Fatalf("%s: stats = %+v, want 1 entry, 5 hits", rg.name, st)
		}
		if st.Bytes <= 0 {
			t.Fatalf("%s: stats report %d resident bytes", rg.name, st.Bytes)
		}
		if cols := c.entries["k"].cols; rg.name == "limit" && cap(cols.IP) != len(want) {
			t.Fatalf("limit: resident columns have capacity %d for %d events, want them sized once",
				cap(cols.IP), len(want))
		}
	}
}

func TestReplayCacheConcurrentCursors(t *testing.T) {
	want := canonicalAll(testEvents(5000))
	c := NewReplayCache(0)
	gen := func() Source { return NewSliceSource(want) }
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := c.Open("k", gen)
			var n int
			for {
				ev, ok := src.Next()
				if !ok {
					break
				}
				if ev != want[n] {
					errs <- "cursor diverged from reference stream"
					return
				}
				n++
			}
			if src.Err() != nil || n != len(want) {
				errs <- "cursor ended early or with error"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestReplayCacheBudgetFallback(t *testing.T) {
	want := canonicalAll(testEvents(4000))
	for _, rg := range replayGens {
		var opens atomic.Int64
		gen := func() Source {
			opens.Add(1)
			return rg.wrap(NewSliceSource(want), len(want))
		}
		// A 4000-event stream encodes to far more than 128 bytes, so the
		// cache must reject it and regenerate on every open.
		c := NewReplayCache(128)
		for i := 0; i < 3; i++ {
			got := drainAll(t, c.Open("k", gen))
			eventsEqual(t, got, want)
		}
		st := c.Stats()
		if st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("%s: over-budget stream retained: %+v", rg.name, st)
		}
		if st.Rejected != 1 {
			t.Fatalf("%s: rejected = %d, want 1", rg.name, st.Rejected)
		}
		if st.Misses != 3 {
			t.Fatalf("%s: misses = %d, want 3", rg.name, st.Misses)
		}
		// One open to materialise (abandoned) + one live fallback per Open.
		if n := opens.Load(); n != 4 {
			t.Fatalf("%s: generator opened %d times, want 4", rg.name, n)
		}
	}
}

func TestReplayCacheFailingStreamNotCached(t *testing.T) {
	var opens atomic.Int64
	gen := func() Source {
		opens.Add(1)
		return NewFailAfter(NewSliceSource(testEvents(100)), 10, nil)
	}
	c := NewReplayCache(0)
	for i := 0; i < 2; i++ {
		src := c.Open("bad", gen)
		var n int
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if n != 10 {
			t.Fatalf("open %d: got %d events, want 10", i, n)
		}
		if err := src.Err(); err != ErrInjected {
			t.Fatalf("open %d: Err = %v, want ErrInjected", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("failing stream cached: %+v", c.Stats())
	}
}

func TestReplayCacheDistinctKeys(t *testing.T) {
	a := canonicalAll(testEvents(100))
	b := canonicalAll(testEvents(300))
	c := NewReplayCache(0)
	gotA := drainAll(t, c.Open("a", func() Source { return NewSliceSource(a) }))
	gotB := drainAll(t, c.Open("b", func() Source { return NewSliceSource(b) }))
	eventsEqual(t, gotA, a)
	eventsEqual(t, gotB, b)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestReplayStatsString(t *testing.T) {
	c := NewReplayCache(64 << 20)
	drainAll(t, c.Open("k", func() Source { return NewSliceSource(canonicalAll(testEvents(50))) }))
	s := c.Stats().String()
	if s == "" {
		t.Fatal("empty stats string")
	}
}
