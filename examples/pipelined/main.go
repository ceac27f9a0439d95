// Pipelined-operation example — §5 of the paper.
//
// In a real pipeline a prediction is verified only a "prediction gap"
// later; meanwhile more predictions (including for the same static load)
// are made from speculative state. Stride predictors catch up after a
// misprediction by extrapolating over the pending instances; context
// predictors cannot, so a gap longer than a loop's period kills their
// predictions for that loop (the domino effect).
//
// This example runs the hybrid predictor over the same mixed workload at
// prediction gaps 0 (immediate), 4, 8 and 12. The same predictor
// configuration serves every gap: the gap passed to RunTrace is the only
// input that picks between immediate update and pipelined operation.
package main

import (
	"fmt"
	"log"

	"capred"
)

func source() capred.Source {
	g := capred.NewGenerator(23)
	g.AddShare(capred.NewGlobalScalars(g, 12), 30)
	g.AddShare(capred.NewArrayWalk(g, 3000, 4, 8), 20)
	g.AddShare(capred.NewLinkedList(g, 10, 1), 25)
	g.AddShare(capred.NewCallSites(g, 4, 5, 4), 15)
	g.AddShare(capred.NewRandomWalk(g, 1<<15), 10)
	return capred.Limit(g, 300_000)
}

func main() {
	fmt.Println("hybrid CAP/stride over a mixed workload, varying prediction gap")
	fmt.Printf("%-10s  %-10s  %-9s\n", "gap", "pred rate", "accuracy")
	for _, gap := range []int{0, 4, 8, 12} {
		c, err := capred.RunTrace(source(), capred.NewHybrid(capred.DefaultHybridConfig()), gap)
		if err != nil {
			log.Fatalf("trace failed: %v", err)
		}
		name := "immediate"
		if gap > 0 {
			name = fmt.Sprintf("%d loads", gap)
		}
		fmt.Printf("%-10s  %8.1f%%  %8.2f%%\n", name, c.PredRate()*100, c.Accuracy()*100)
	}
	fmt.Println("\nThe gap costs prediction rate once it exceeds the re-visit")
	fmt.Println("distance of the tightest loops, and accuracy drops because")
	fmt.Println("in-flight mispredictions propagate (§5.2) — the Figure 11 shape.")
}
