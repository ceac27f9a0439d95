package cpu

// Differential fuzzers for Run's two halves. FuzzRunSoiledColumns: a
// block's cells that the event's kind does not carry may hold anything,
// so for every event mix and every garbage pattern the timing result
// must equal the one from zeroed columns. FuzzTimingReplayMatchesLive:
// a Shard run that schedules from stored stream-determined columns must
// equal a fresh machine's live run.

import (
	"testing"

	"capred/internal/trace/tracetest"
)

func FuzzRunSoiledColumns(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 200, 9, 9, 5, 1, 1, 1}, uint32(0xFFFFFFFF), uint8(1), uint8(255))
	f.Add([]byte("load-branch-call mixes steer from here, any bytes work"), uint32(0xDEADBEEF), uint8(3), uint8(7))
	f.Add(make([]byte, 4*300), uint32(0x1000), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, word uint32, src, lat uint8) {
		// Odd block size so block boundaries land mid-mix.
		checkSoiledEqualsClean(t, tracetest.EventsFromBytes(data), 17, garbage{word: word, src: uint32(src), lat: lat})
	})
}

func FuzzTimingReplayMatchesLive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 200, 9, 9, 5, 1, 1, 1})
	f.Add([]byte("load-branch-call mixes steer from here, any bytes work"))
	f.Add(make([]byte, 4*300))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Odd block size so block boundaries land mid-mix.
		checkReplayMatchesLive(t, tracetest.EventsFromBytes(data), 13)
	})
}
