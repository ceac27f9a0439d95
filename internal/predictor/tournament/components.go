// Package tournament holds the entrant of the N-way meta-predictor
// beyond the paper's pair, and the name registry that builds
// tournaments from component names. The chooser itself is
// predictor.Tournament, the same code that runs the paper's hybrid
// (predictor.NewHybrid).
//
// The entrant is a Markov-N stride-history predictor, which learns the
// short repeating stride patterns that neither stride nor CAP captures.
// It implements predictor.Entrant: per-load state in an array indexed
// by a slot of the tournament's one load buffer.
//
// The registry (NewComponent, NewNamed, NewFull) names every buildable
// entrant, package predictor's stride, CAP and last-address components
// included; capserve validates session configs against ComponentNames.
package tournament

import (
	"fmt"

	"capred/internal/predictor"
)

// ComponentNames lists every component NewComponent can build, in
// canonical order. capserve validates session configs against this
// list and pre-registers /metrics series from it.
func ComponentNames() []string {
	return []string{"stride", "cap", "last", "markov"}
}

// DefaultComponents is the production lineup: the paper's hybrid pair
// plus the Markov entrant.
func DefaultComponents() []string {
	return []string{"stride", "cap", "markov"}
}

// NewComponent builds the named component with its default
// configuration. The names are the components' own Name() values — one
// open namespace shared with the predictor.Component table, not a
// parallel enum.
func NewComponent(name string) (predictor.Entrant, error) {
	switch name {
	case "stride":
		return predictor.NewStrideComponent(predictor.DefaultStrideConfig()), nil
	case "cap":
		return predictor.NewCAPComponent(predictor.DefaultCAPConfig()), nil
	case "last":
		return predictor.NewLastComponent(predictor.DefaultLastConfig()), nil
	case "markov":
		return NewMarkov(DefaultMarkovConfig()), nil
	}
	return nil, fmt.Errorf("tournament: unknown component %q", name)
}

// NewNamed builds a tournament over the named components in order,
// each with its default configuration.
func NewNamed(cfg predictor.Config, names ...string) (*predictor.Tournament, error) {
	comps := make([]predictor.Entrant, 0, len(names))
	for _, n := range names {
		c, err := NewComponent(n)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
	}
	return predictor.New(cfg, comps...), nil
}

// NewFull builds the default tournament: stride, CAP and Markov
// (DefaultComponents) over the default chooser.
//
// Deprecated: the bool is ignored. The prediction gap the tournament is
// driven under is the only input that picks the resolution discipline.
func NewFull(_ bool) *predictor.Tournament {
	t, err := NewNamed(predictor.DefaultConfig(), DefaultComponents()...)
	if err != nil {
		panic(err) // unreachable: DefaultComponents are all known
	}
	return t
}
