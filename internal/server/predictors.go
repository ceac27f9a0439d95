package server

// Named predictor configurations a session can bind to, plus the knobs
// the paper's evaluation turns: confidence thresholds, CAP history
// length, LT tag bits, the pollution-free field width, and the hybrid's
// LT update policy. Unset knobs keep the paper's §4.2 defaults.

import (
	"fmt"
	"slices"

	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
)

// SessionConfig is the body of POST /v1/sessions: the predictor kind, an
// optional prediction gap, and optional knob overrides (nil keeps the
// named configuration's default).
type SessionConfig struct {
	// Predictor names the configuration: last, stride, stride-basic, cap,
	// hybrid or tournament.
	Predictor string `json:"predictor"`
	// Gap, when positive, runs the session in the paper's pipelined mode:
	// resolutions arrive Gap dynamic loads after their predictions.
	Gap int `json:"gap,omitempty"`

	ConfThreshold *uint8 `json:"conf_threshold,omitempty"` // speculation confidence threshold
	HistoryLen    *int   `json:"history_len,omitempty"`    // CAP base-address history depth
	TagBits       *int   `json:"tag_bits,omitempty"`       // CAP LT tag width (0 disables)
	PFBits        *int   `json:"pf_bits,omitempty"`        // CAP pollution-free field width (0 disables)
	// UpdatePolicy selects the hybrid's LT update policy: "always",
	// "unless-stride-correct" or "unless-stride-selected".
	UpdatePolicy string `json:"update_policy,omitempty"`

	// Components names the tournament's entrants, in preference order
	// (tournament sessions only); empty selects the default lineup:
	// stride, cap and markov.
	Components []string `json:"components,omitempty"`
	// ChooserMax overrides the tournament chooser's saturating-counter
	// ceiling (tournament sessions only).
	ChooserMax *uint8 `json:"chooser_max,omitempty"`
}

// PredictorKinds lists the predictor configurations sessions can bind
// to, in a stable order (it seeds the per-kind metric series).
func PredictorKinds() []string {
	return []string{"last", "stride", "stride-basic", "cap", "hybrid", "tournament"}
}

// updatePolicies maps the wire names onto the §4.3 policies.
var updatePolicies = map[string]predictor.UpdatePolicy{
	"always":                 predictor.UpdateAlways,
	"unless-stride-correct":  predictor.UpdateUnlessStrideCorrect,
	"unless-stride-selected": predictor.UpdateUnlessStrideSelected,
}

// validate rejects malformed session configurations with a message fit
// for the HTTP 400 body.
func (c SessionConfig) validate() error {
	switch c.Predictor {
	case "last", "stride", "stride-basic", "cap", "hybrid", "tournament":
	case "":
		return fmt.Errorf("predictor is required (one of %v)", PredictorKinds())
	default:
		return fmt.Errorf("unknown predictor %q (one of %v)", c.Predictor, PredictorKinds())
	}
	if c.Gap < 0 || c.Gap > 256 {
		return fmt.Errorf("gap must be in [0, 256], got %d", c.Gap)
	}
	if c.HistoryLen != nil && (*c.HistoryLen < 1 || *c.HistoryLen > 16) {
		return fmt.Errorf("history_len must be in [1, 16], got %d", *c.HistoryLen)
	}
	if c.TagBits != nil && (*c.TagBits < 0 || *c.TagBits > 16) {
		return fmt.Errorf("tag_bits must be in [0, 16], got %d", *c.TagBits)
	}
	if c.PFBits != nil && (*c.PFBits < 0 || *c.PFBits > 8) {
		return fmt.Errorf("pf_bits must be in [0, 8], got %d", *c.PFBits)
	}
	if c.UpdatePolicy != "" {
		if c.Predictor != "hybrid" {
			return fmt.Errorf("update_policy applies to the hybrid predictor only")
		}
		if _, ok := updatePolicies[c.UpdatePolicy]; !ok {
			return fmt.Errorf("unknown update_policy %q", c.UpdatePolicy)
		}
	}
	hasCAP := c.Predictor == "cap" || c.Predictor == "hybrid"
	if !hasCAP && (c.HistoryLen != nil || c.TagBits != nil || c.PFBits != nil) {
		return fmt.Errorf("history_len, tag_bits and pf_bits apply to cap and hybrid only")
	}
	if c.Predictor == "tournament" {
		// The tournament builds each entrant with its default config; the
		// single-predictor knobs have no well-defined target and are
		// rejected rather than silently ignored.
		if c.ConfThreshold != nil {
			return fmt.Errorf("conf_threshold does not apply to the tournament; components use their defaults")
		}
		known := tournament.ComponentNames()
		for i, name := range c.Components {
			if !slices.Contains(known, name) {
				return fmt.Errorf("unknown component %q (one of %v)", name, known)
			}
			if slices.Contains(c.Components[:i], name) {
				return fmt.Errorf("duplicate component %q", name)
			}
		}
		if len(c.Components) > predictor.MaxComponents {
			return fmt.Errorf("at most %d components, got %d", predictor.MaxComponents, len(c.Components))
		}
		if c.ChooserMax != nil && (*c.ChooserMax < 2 || *c.ChooserMax > 15) {
			return fmt.Errorf("chooser_max must be in [2, 15], got %d", *c.ChooserMax)
		}
	} else {
		if c.Components != nil || c.ChooserMax != nil {
			return fmt.Errorf("components and chooser_max apply to the tournament predictor only")
		}
	}
	return nil
}

// build constructs a fresh predictor instance for the configuration.
// Every call returns an independent instance, so concurrent sessions
// never share predictor state.
func (c SessionConfig) build() (predictor.Predictor, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	applyCAP := func(cfg *predictor.CAPConfig) {
		if c.ConfThreshold != nil {
			cfg.ConfThreshold = *c.ConfThreshold
		}
		if c.HistoryLen != nil {
			cfg.HistoryLen = *c.HistoryLen
		}
		if c.TagBits != nil {
			cfg.TagBits = *c.TagBits
		}
		if c.PFBits != nil {
			cfg.PFBits = *c.PFBits
		}
	}
	switch c.Predictor {
	case "last":
		cfg := predictor.DefaultLastConfig()
		if c.ConfThreshold != nil {
			cfg.ConfThreshold = *c.ConfThreshold
		}
		return predictor.NewLast(cfg), nil
	case "stride", "stride-basic":
		cfg := predictor.DefaultStrideConfig()
		if c.Predictor == "stride-basic" {
			cfg = predictor.BasicStrideConfig()
		}
		if c.ConfThreshold != nil {
			cfg.ConfThreshold = *c.ConfThreshold
		}
		return predictor.NewStride(cfg), nil
	case "cap":
		cfg := predictor.DefaultCAPConfig()
		applyCAP(&cfg)
		return predictor.NewCAP(cfg), nil
	case "hybrid":
		cfg := predictor.DefaultHybridConfig()
		applyCAP(&cfg.CAP)
		if c.ConfThreshold != nil {
			cfg.Stride.ConfThreshold = *c.ConfThreshold
		}
		if c.UpdatePolicy != "" {
			cfg.UpdatePolicy = updatePolicies[c.UpdatePolicy]
		}
		return predictor.NewHybrid(cfg), nil
	case "tournament":
		names := c.Components
		if len(names) == 0 {
			names = tournament.DefaultComponents()
		}
		cfg := predictor.DefaultConfig()
		if c.ChooserMax != nil {
			cfg.CounterMax = *c.ChooserMax
		}
		return tournament.NewNamed(cfg, names...)
	}
	return nil, fmt.Errorf("unknown predictor %q", c.Predictor)
}

// tournamentComponentLabels lists the display names a tournament
// session's components can report, in a stable order — the /metrics
// per-component series are pre-registered from it so the scrape surface
// is stable from the first request. Sessions build components with
// their default configurations, so each buildable component contributes
// exactly its default Name().
func tournamentComponentLabels() []string {
	names := tournament.ComponentNames()
	out := make([]string, len(names))
	for i, n := range names {
		c, err := tournament.NewComponent(n)
		if err != nil {
			panic(err) // unreachable: ComponentNames lists buildable components
		}
		out[i] = c.Name()
	}
	return out
}
