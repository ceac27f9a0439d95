package predictor

// Profile feedback / software assist — the first future-work direction of
// §6: "let the compiler/profiler classify loads according to the expected
// address pattern: last value, stride, context based, unknown. This
// reduces warm-up time, helps reducing predictor size, and eliminates
// prediction table pollution."
//
// Profiler observes a training stream and classifies every static load;
// Profiled wraps any predictor and uses the classification to keep
// irregular loads out of the prediction tables entirely.

// LoadClass is a profiled static load's expected address pattern.
type LoadClass uint8

// Load classes, ordered from most to least predictable.
const (
	ClassUnknown LoadClass = iota
	ClassConstant
	ClassStride
	ClassContext
	ClassIrregular
)

// String names the class.
func (c LoadClass) String() string {
	switch c {
	case ClassConstant:
		return "constant"
	case ClassStride:
		return "stride"
	case ClassContext:
		return "context"
	case ClassIrregular:
		return "irregular"
	default:
		return "unknown"
	}
}

// Profile maps static load IPs to classes. The zero value classifies
// everything as ClassUnknown.
type Profile struct {
	classes map[uint32]LoadClass
}

// Class returns the classification for ip.
func (p *Profile) Class(ip uint32) LoadClass {
	if p == nil || p.classes == nil {
		return ClassUnknown
	}
	return p.classes[ip]
}

// Set overrides the classification for ip (the compiler-hint path).
func (p *Profile) Set(ip uint32, c LoadClass) {
	if p.classes == nil {
		p.classes = make(map[uint32]LoadClass)
	}
	p.classes[ip] = c
}

// profState is the per-IP evidence the profiler accumulates.
type profState struct {
	count    int64
	constHit int64
	stridHit int64
	recurHit int64
	last     uint32
	stride   int32
	haveLast bool
	haveStr  bool
	ring     [8]uint32 // recent distinct addresses, for recurrence
	ringN    int
}

// Profiler classifies static loads from an observed address stream.
type Profiler struct {
	loads map[uint32]*profState
	// MinSamples is the occurrence count below which a load stays
	// ClassUnknown (too little evidence either way).
	MinSamples int64
	// Threshold is the hit fraction a pattern needs to win (default 0.75).
	Threshold float64
}

// NewProfiler returns a profiler with the default thresholds.
func NewProfiler() *Profiler {
	return &Profiler{
		loads:      make(map[uint32]*profState),
		MinSamples: 16,
		Threshold:  0.75,
	}
}

// Observe feeds one resolved load into the profiler.
func (p *Profiler) Observe(ip, addr uint32) {
	st := p.loads[ip]
	if st == nil {
		st = &profState{}
		p.loads[ip] = st
	}
	if st.haveLast {
		st.count++
		delta := int32(addr - st.last)
		if delta == 0 {
			st.constHit++
		}
		if st.haveStr && delta == st.stride {
			st.stridHit++
		}
		st.stride = delta
		st.haveStr = true
		for i := 0; i < st.ringN; i++ {
			if st.ring[i] == addr {
				st.recurHit++
				break
			}
		}
	}
	// Track recent distinct addresses for recurrence detection.
	found := false
	for i := 0; i < st.ringN; i++ {
		if st.ring[i] == addr {
			found = true
			break
		}
	}
	if !found {
		if st.ringN < len(st.ring) {
			st.ring[st.ringN] = addr
			st.ringN++
		} else {
			copy(st.ring[:], st.ring[1:])
			st.ring[len(st.ring)-1] = addr
		}
	}
	st.last = addr
	st.haveLast = true
}

// Profile produces the classification from the evidence so far.
func (p *Profiler) Profile() *Profile {
	out := &Profile{classes: make(map[uint32]LoadClass, len(p.loads))}
	for ip, st := range p.loads {
		out.classes[ip] = p.classify(st)
	}
	return out
}

func (p *Profiler) classify(st *profState) LoadClass {
	if st.count < p.MinSamples {
		return ClassUnknown
	}
	n := float64(st.count)
	switch {
	case float64(st.constHit)/n >= p.Threshold:
		return ClassConstant
	case float64(st.stridHit)/n >= p.Threshold:
		return ClassStride
	case float64(st.recurHit)/n >= p.Threshold:
		return ClassContext
	default:
		return ClassIrregular
	}
}

// Profiled wraps a predictor with profile feedback: loads the profile
// marks irregular never touch the prediction tables — no LB allocation,
// no LT updates, no wasted speculative accesses.
type Profiled struct {
	inner   Predictor
	profile *Profile
}

// NewProfiled wraps inner with the given profile.
func NewProfiled(inner Predictor, profile *Profile) *Profiled {
	return &Profiled{inner: inner, profile: profile}
}

// Name implements Predictor.
func (p *Profiled) Name() string { return p.inner.Name() + "+profile" }

// Predict implements Predictor.
func (p *Profiled) Predict(ref LoadRef) Prediction {
	if p.profile.Class(ref.IP) == ClassIrregular {
		return Prediction{}
	}
	return p.inner.Predict(ref)
}

// Resolve implements Predictor.
func (p *Profiled) Resolve(ref LoadRef, pr Prediction, actual uint32) {
	if p.profile.Class(ref.IP) == ClassIrregular {
		return
	}
	p.inner.Resolve(ref, pr, actual)
}
