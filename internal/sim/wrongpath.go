package sim

import (
	"context"

	"capred/internal/metrics"
	"capred/internal/pipeline"
	"capred/internal/predictor"
	"capred/internal/trace"
)

// WrongPathMode selects how wrong-path predictions are handled.
type WrongPathMode uint8

// Wrong-path handling modes.
const (
	// WrongPathSquash: wrong-path loads predict through the tables and
	// are squashed on recovery — the §5.4 history-buffer discipline.
	WrongPathSquash WrongPathMode = iota
	// WrongPathDestructive: wrong-path loads resolve with their bogus
	// addresses, destructively updating the tables — the hazard §5.4
	// warns against.
	WrongPathDestructive
)

// String names the mode.
func (m WrongPathMode) String() string {
	switch m {
	case WrongPathSquash:
		return "wrong path + squash recovery"
	case WrongPathDestructive:
		return "wrong path, destructive updates"
	default:
		return "invalid"
	}
}

// runTraceWrongPath drives a predictor with a prediction gap, injecting a burst of wrong-path loads after every branch the
// model's own predictor would have mispredicted. Wrong-path loads replay
// recently seen static loads with perturbed addresses — what a front end
// fetches down the wrong arm of a branch.
func runTraceWrongPath(ctx context.Context, src trace.Source, p predictor.Predictor, gapDepth, burst int, mode WrongPathMode) (metrics.Counters, error) {
	var (
		c    metrics.Counters
		ghr  predictor.GHR
		path predictor.PathHist
		gap  = pipeline.New(p, gapDepth)

		// Small g-share deciding which branches are "mispredicted".
		bp    = make([]uint8, 4096)
		bhist uint32

		// Ring of recent load refs to replay on the wrong path: rn
		// valid entries, the newest just before the write cursor wr.
		recent [16]predictor.LoadRef
		rn, wr int
	)
	predictBr := func(ip uint32) bool { return bp[(ip>>2^bhist)&4095] >= 2 }
	updateBr := func(ip uint32, taken bool) {
		e := &bp[(ip>>2^bhist)&4095]
		if taken {
			if *e < 3 {
				*e++
			}
		} else if *e > 0 {
			*e--
		}
		bhist = bhist<<1 | b2u(taken)
	}

	err := forEachBlock(ctx, src, func(b *trace.Block) {
		for i, kb := range b.KindTaken {
			switch trace.Kind(kb &^ trace.KindTakenBit) {
			case trace.KindBranch:
				ip, taken := b.IP[i], kb&trace.KindTakenBit != 0
				mispredicted := predictBr(ip) != taken
				updateBr(ip, taken)
				ghr.Update(taken)
				if mispredicted && rn > 0 {
					// Fetch down the wrong path: replay recent loads with
					// perturbed addresses, then recover.
					for j := 0; j < burst; j++ {
						ref := recent[(wr-1-j%rn+len(recent))%len(recent)]
						ref.GHR = ghr.Value() ^ 1 // wrong-path history
						gap.Process(ref, ref.IP*2654435761|4)
					}
					if mode == WrongPathSquash {
						// Recovery flushes the burst before it resolves.
						gap.SquashNewest(burst)
					}
					// In destructive mode the bogus actuals resolve through
					// the normal gap flow, corrupting the tables.
				}
			case trace.KindCall:
				path.Push(b.IP[i])
			case trace.KindLoad:
				ref := predictor.LoadRef{
					IP: b.IP[i], Offset: b.Offset[i],
					GHR: ghr.Value(), Path: path.Value(),
				}
				recent[wr] = ref
				wr = (wr + 1) % len(recent)
				if rn < len(recent) {
					rn++
				}
				addr := b.Addr[i]
				pr := gap.Process(ref, addr)
				c.Record(pr, addr)
			}
		}
	})
	if err != nil {
		return c, err
	}
	gap.Drain()
	return c, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// WrongPath runs the §5.4 speculative-control-flow experiment: the hybrid
// predictor at a prediction gap of 8, with wrong-path load bursts after
// every modelled branch misprediction, handled by squash recovery or
// resolved destructively. The first row runs no wrong path.
func WrongPath(cfg Config) SweepResult {
	hybrid := predictor.DefaultHybridConfig()
	rows := []row{{"no wrong path", hybrid, 8, nil}}
	for _, mode := range []WrongPathMode{WrongPathSquash, WrongPathDestructive} {
		rows = append(rows, row{mode.String(), hybrid, 0,
			func(ctx context.Context, open func() trace.Source, p predictor.Predictor) (metrics.Counters, error) {
				return runTraceWrongPath(ctx, open(), p, 8, 4, mode)
			}})
	}
	return sweepRows(cfg, "§5.4: speculative control flow (hybrid, gap 8, wrong-path bursts of 4)", "discipline", []rate{
		pct("prediction rate", metrics.Rates.PredRate),
		pct2("accuracy", metrics.Rates.Accuracy),
		pct("correct of loads", metrics.Rates.CorrectSpecRate),
	}, rows)
}
