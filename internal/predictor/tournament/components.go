// Package tournament is the name registry that builds tournaments from
// component names. The chooser and every entrant — stride, CAP, last
// and Markov — live in package predictor; the chooser is
// predictor.Tournament, the same code that runs the paper's hybrid
// (predictor.NewHybrid). capserve validates session configs against
// ComponentNames.
package tournament

import (
	"fmt"
	"strings"

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
		return predictor.NewMarkov(predictor.DefaultMarkovConfig()), nil
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

// Lineup is the predictor.Spec of a named tournament: its entrants'
// names in order, joined by "+" ("stride+cap"), each entrant with its
// default configuration, over predictor.DefaultConfig's chooser.
type Lineup string

// LineupOf is the Lineup of the named entrants.
func LineupOf(names ...string) Lineup { return Lineup(strings.Join(names, "+")) }

// New builds the lineup's tournament. It panics on a name NewComponent
// does not know.
func (l Lineup) New() predictor.Predictor {
	t, err := NewNamed(predictor.DefaultConfig(), strings.Split(string(l), "+")...)
	if err != nil {
		panic(err)
	}
	return t
}

// NewFull builds the default tournament: stride, CAP and Markov
// (DefaultComponents) over the default chooser.
//
// Deprecated: the bool is ignored. The prediction gap the tournament is
// driven under is the only input that picks the resolution discipline.
func NewFull(_ bool) *predictor.Tournament {
	return LineupOf(DefaultComponents()...).New().(*predictor.Tournament)
}
