// Package capred is a Go reproduction of "Correlated Load-Address
// Predictors" (Bekerman, Jourdan, Ronen, Kirshenboim, Rappoport, Yoaz,
// Weiser — ISCA 1999): the correlated context-based address predictor
// (CAP), the enhanced stride predictor, the hybrid CAP/stride predictor
// with a dynamic selector, the pipelined (prediction-gap) operating mode,
// and the full evaluation harness — synthetic workload suites standing in
// for the paper's 45 proprietary IA-32 traces, a two-level cache
// hierarchy, and a trace-driven out-of-order timing model.
//
// # Quick start
//
//	p := capred.NewHybrid(capred.DefaultHybridConfig())
//	spec, _ := capred.TraceByName("INT_xli")
//	counters, err := capred.RunTrace(capred.Limit(spec.Open(), 400_000), p, 0)
//	if err != nil {
//		log.Fatal(err) // decode error, injected fault, ...
//	}
//	fmt.Println(counters) // prediction rate, accuracy, ...
//
// Every figure and table of the paper's evaluation has a driver in this
// package (Fig5 … Fig12, UpdatePolicy, LTSize, Baselines, ControlBased,
// Ablations); each returns the one experiment result type, whose Table()
// renders the rows the paper reports and whose Value(row, col) reads one
// cell. See EXPERIMENTS.md for measured-vs-paper numbers.
//
// # Failure model
//
// Every driver tolerates per-trace failures: a trace whose source errors,
// whose predictor panics, or whose run is cancelled is excluded from the
// aggregates, recorded in the result's Failures list, and reported in the
// rendered table's footer. RunTraceContext adds cancellation and
// deadlines; the fault-injecting sources (NewFailAfter, NewCorrupt,
// NewErrSource, NewHang) exercise these paths in tests. See DESIGN.md §8.
package capred

import (
	"capred/internal/cpu"
	"capred/internal/metrics"
	"capred/internal/pipeline"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/prefetch"
	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/valuepred"
	"capred/internal/workload"
)

// Predictor interface and prediction types.
type (
	// Predictor is a load-address predictor (Predict / Resolve / Name).
	Predictor = predictor.Predictor
	// Prediction is the outcome of Predict for one dynamic load.
	Prediction = predictor.Prediction
	// ComponentPrediction is one hybrid component's opinion.
	ComponentPrediction = predictor.ComponentPrediction
	// LoadRef identifies a dynamic load at prediction time.
	LoadRef = predictor.LoadRef
	// Component identifies a hybrid component (stride or CAP).
	Component = predictor.Component
	// Squasher is implemented by predictors supporting wrong-path
	// recovery (§5.4).
	Squasher = predictor.Squasher
	// GHR is the global branch-history register.
	GHR = predictor.GHR
	// PathHist is the call-path history register.
	PathHist = predictor.PathHist
)

// Predictor configurations.
type (
	// LastConfig configures the last-address baseline predictor.
	LastConfig = predictor.LastConfig
	// StrideConfig configures the (basic or enhanced) stride predictor.
	StrideConfig = predictor.StrideConfig
	// CAPConfig configures the context-based address predictor (§3).
	CAPConfig = predictor.CAPConfig
	// HybridConfig configures the hybrid CAP/stride predictor (§3.7).
	HybridConfig = predictor.HybridConfig
	// ControlConfig configures the §3.6 control-based predictors.
	ControlConfig = predictor.ControlConfig
	// Profile maps static loads to expected address-pattern classes.
	Profile = predictor.Profile
	// Profiler builds a Profile from an observed address stream.
	Profiler = predictor.Profiler
	// LoadClass is a profiled load's pattern class.
	LoadClass = predictor.LoadClass
	// CFConfig configures the control-flow indications mechanism (§3.4).
	CFConfig = predictor.CFConfig
	// UpdatePolicy selects the hybrid's LT update policy (§4.3).
	UpdatePolicy = predictor.UpdatePolicy
)

// Predictor components and selector states.
const (
	CompNone   = predictor.CompNone
	CompStride = predictor.CompStride
	CompCAP    = predictor.CompCAP
	CompLast   = predictor.CompLast
	CompMarkov = predictor.CompMarkov

	SelStrongStride = predictor.SelStrongStride
	SelWeakStride   = predictor.SelWeakStride
	SelWeakCAP      = predictor.SelWeakCAP
	SelStrongCAP    = predictor.SelStrongCAP

	UpdateAlways               = predictor.UpdateAlways
	UpdateUnlessStrideCorrect  = predictor.UpdateUnlessStrideCorrect
	UpdateUnlessStrideSelected = predictor.UpdateUnlessStrideSelected

	ClassUnknown   = predictor.ClassUnknown
	ClassConstant  = predictor.ClassConstant
	ClassStride    = predictor.ClassStride
	ClassContext   = predictor.ClassContext
	ClassIrregular = predictor.ClassIrregular
)

// Predictor constructors and defaults.
var (
	NewLast              = predictor.NewLast
	NewStride            = predictor.NewStride
	NewCAP               = predictor.NewCAP
	NewHybrid            = predictor.NewHybrid
	NewControl           = predictor.NewControl
	NewProfiler          = predictor.NewProfiler
	NewProfiled          = predictor.NewProfiled
	DefaultLastConfig    = predictor.DefaultLastConfig
	DefaultStrideConfig  = predictor.DefaultStrideConfig
	BasicStrideConfig    = predictor.BasicStrideConfig
	DefaultCAPConfig     = predictor.DefaultCAPConfig
	DefaultHybridConfig  = predictor.DefaultHybridConfig
	DefaultControlConfig = predictor.DefaultControlConfig
	NoCF                 = predictor.NoCF
)

// Tournament meta-predictor: N-way component arbitration behind the
// standard Predictor interface. It is the same code as NewHybrid, which
// builds the stride+CAP pair; the default lineup (NewFullTournament)
// adds the Markov stride-history component.
type (
	// Tournament is the N-way meta-predictor.
	Tournament = predictor.Tournament
	// TournamentConfig sizes the tournament's chooser.
	TournamentConfig = predictor.Config
	// TournamentComponent is one tournament entrant: per-load state in a
	// slot-indexed array (Slots / Reset) that the tournament's one load
	// buffer indexes, and Predict / Resolve / Squash taking the slot.
	TournamentComponent = predictor.Entrant
	// ComponentStat is one component's selection statistics.
	ComponentStat = predictor.ComponentStat
	// MarkovConfig configures the Markov stride-history component.
	MarkovConfig = predictor.MarkovConfig
)

// Tournament constructors.
var (
	NewTournament            = predictor.New
	NewNamedTournament       = tournament.NewNamed
	NewFullTournament        = tournament.NewFull
	NewTournamentComponent   = tournament.NewComponent
	TournamentComponentNames = tournament.ComponentNames
	DefaultTournamentConfig  = predictor.DefaultConfig
	NewStrideComponent       = predictor.NewStrideComponent
	NewCAPComponent          = predictor.NewCAPComponent
	NewLastComponent         = predictor.NewLastComponent
	NewMarkov                = predictor.NewMarkov
	DefaultMarkovConfig      = predictor.DefaultMarkovConfig
)

// Trace model.
type (
	// Event is one dynamic instruction in a trace.
	Event = trace.Event
	// EventKind discriminates trace events.
	EventKind = trace.Kind
	// Source is a stream of trace events.
	Source = trace.Source
	// Block is a struct-of-arrays batch of events (the hot-path form).
	Block = trace.Block
	// BlockSource is a Source that can also deliver events as Blocks,
	// the one bulk delivery path.
	BlockSource = trace.BlockSource
	// Sink consumes trace events.
	Sink = trace.Sink
	// TraceStats summarises a trace.
	TraceStats = trace.Stats
	// ReplayCache materialises trace streams once and replays them.
	ReplayCache = trace.ReplayCache
	// ReplayStats reports a ReplayCache's occupancy and hit counts.
	ReplayStats = trace.ReplayStats
)

// Event kinds.
const (
	KindALU    = trace.KindALU
	KindLoad   = trace.KindLoad
	KindStore  = trace.KindStore
	KindBranch = trace.KindBranch
	KindCall   = trace.KindCall
	KindReturn = trace.KindReturn

	// BlockLen is the standard block capacity of the hot drain loops.
	BlockLen = trace.BlockLen
	// KindTakenBit flags a taken branch in a Block's KindTaken column.
	KindTakenBit = trace.KindTakenBit
)

// Trace utilities.
var (
	// NewTraceWriter encodes events to the binary trace format.
	NewTraceWriter = trace.NewWriter
	// NewTraceReader decodes a binary trace file as a Source.
	NewTraceReader = trace.NewReader
	// Limit truncates a source after n events.
	Limit = trace.NewLimit
	// CollectStats consumes a source and summarises it.
	CollectStats = trace.Collect
	// TopLoads returns the hottest static loads of a source by dynamic
	// execution count.
	TopLoads = trace.TopLoads
	// AsBlocks adapts any Source to struct-of-arrays block delivery.
	AsBlocks = trace.AsBlocks
	// NewBlock allocates an empty block with pre-sized columns.
	NewBlock = trace.NewBlock
	// GetBlock and PutBlock recycle standard-capacity blocks through a
	// pool, keeping steady-state drain loops allocation-free.
	GetBlock = trace.GetBlock
	PutBlock = trace.PutBlock
	// NewReplayCache builds a replay cache with a byte budget (0 = no
	// limit); attach it to an ExperimentConfig to materialise each trace
	// once and replay it across passes.
	NewReplayCache = trace.NewReplayCache
)

// Fault injection: composable Source wrappers for testing how the
// harness degrades when traces misbehave.
var (
	// NewFailAfter yields n events, then fails with an error.
	NewFailAfter = trace.NewFailAfter
	// NewCorrupt deterministically corrupts every k-th event.
	NewCorrupt = trace.NewCorrupt
	// NewErrSource fails on the first Next call.
	NewErrSource = trace.NewErrSource
	// NewHang blocks in Next until the context is cancelled.
	NewHang = trace.NewHang
	// Transient marks an error as retryable by the run layer.
	Transient = trace.Transient
	// IsTransient reports whether an error is marked retryable.
	IsTransient = trace.IsTransient
	// FlakyOpen wraps an open function to fail its first k calls.
	FlakyOpen = trace.FlakyOpen
)

// ErrInjected is the default error produced by the fault-injecting
// sources.
var ErrInjected = trace.ErrInjected

// Workloads: the 45 synthetic traces standing in for the paper's
// evaluation traces, plus the building blocks to compose custom ones.
type (
	// TraceSpec names one synthetic trace of the 45-trace roster.
	TraceSpec = workload.TraceSpec
	// Generator interleaves workload behaviours into a trace Source.
	Generator = workload.Generator
	// Behavior is one simulated program component.
	Behavior = workload.Behavior
	// Heap is the generator's data address space.
	Heap = workload.Heap
)

// Workload constructors.
var (
	Traces        = workload.Traces
	TracesBySuite = workload.BySuite
	TraceByName   = workload.ByName
	SuiteNames    = workload.SuiteNames
	NewGenerator  = workload.NewGenerator

	NewGlobalScalars  = workload.NewGlobalScalars
	NewStackFrame     = workload.NewStackFrame
	NewArrayWalk      = workload.NewArrayWalk
	NewShortLoop      = workload.NewShortLoop
	NewLinkedList     = workload.NewLinkedList
	NewLinkedListOpts = workload.NewLinkedListOpts
	NewDoubleList     = workload.NewDoubleList
	NewBinaryTree     = workload.NewBinaryTree
	NewCallSites      = workload.NewCallSites
	NewHashTable      = workload.NewHashTable
	NewRandomWalk     = workload.NewRandomWalk
)

// Metrics and experiment drivers.
type (
	// Counters aggregates per-load prediction outcomes.
	Counters = metrics.Counters
	// Rates is the read interface shared by Counters and Mean.
	Rates = metrics.Rates
	// Mean is the equal-weight arithmetic mean of per-trace rates; the
	// figure tables' "Average" row.
	Mean = metrics.Mean
	// ExperimentConfig scales the experiment drivers.
	ExperimentConfig = sim.Config
	// Factory builds a fresh predictor; ExperimentConfig.WrapFactory
	// substitutes one for a trace's cells (see sim.Factory).
	Factory = sim.Factory
	// TraceFailure records one trace run that did not complete.
	TraceFailure = sim.TraceFailure
	// FailureSet aggregates the failures of one experiment run.
	FailureSet = sim.FailureSet
	// PanicError wraps a recovered predictor panic with its stack.
	PanicError = sim.PanicError
	// Experiment is one registered experiment driver (name, description,
	// runner).
	Experiment = sim.Experiment
	// ExperimentResult is the interface every experiment result satisfies:
	// a Table() renderer plus the Failed() trace list.
	ExperimentResult = sim.Result
)

// Experiment registry: the same roster capsim, benchsweep and the golden
// regression tests iterate.
var (
	// Experiments lists every registered experiment, sorted by name.
	Experiments = sim.Experiments
	// ExperimentByName looks an experiment up by its CLI name.
	ExperimentByName = sim.ExperimentByName
)

// Experiment drivers — one per paper figure/table. Every driver returns
// the same result type: Table() renders the figure's rows, Value(row,
// col) reads one cell, and a cell no surviving trace filled reads "n/a".
var (
	DefaultExperimentConfig = sim.DefaultConfig
	RunTrace                = sim.RunTrace
	RunTraceContext         = sim.RunTraceContext
	Fig5                    = sim.Fig5
	Fig6                    = sim.Fig6
	Fig7                    = sim.Fig7
	Fig8                    = sim.Fig8
	Fig9                    = sim.Fig9
	Fig10                   = sim.Fig10
	Fig11                   = sim.Fig11
	Fig12                   = sim.Fig12
	RunUpdatePolicy         = sim.UpdatePolicy
	RunLTSize               = sim.LTSize
	RunBaselines            = sim.Baselines
	RunControlBased         = sim.ControlBased
	RunAblations            = sim.Ablations
	RunProfileAssist        = sim.ProfileAssist
	RunAddressVsValue       = sim.AddressVsValue
	RunPrefetch             = sim.Prefetch
	RunClassCoverage        = sim.ClassCoverage
	RunWrongPath            = sim.WrongPath
	RunTournament           = sim.Tournament
)

// Pipelined operation (§5).
type (
	// Gap defers prediction resolution by a fixed number of loads.
	Gap = pipeline.Gap
)

// NewGap wraps a predictor with a prediction gap; depth 0 is the paper's
// immediate update.
var NewGap = pipeline.New

// Value prediction (§1's comparison point) and data prefetching (§1.1).
type (
	// ValuePredictor is a load-value predictor.
	ValuePredictor = valuepred.Predictor
	// ValueConfig sizes the value predictors.
	ValueConfig = valuepred.Config
	// Prefetcher proposes cache-warming addresses from the load stream.
	Prefetcher = prefetch.Prefetcher
	// RPTConfig configures the Baer/Chen stride prefetcher.
	RPTConfig = prefetch.RPTConfig
)

// Value-prediction and prefetching constructors.
var (
	NewLastValue       = valuepred.NewLast
	NewStrideValue     = valuepred.NewStride
	NewContextValue    = valuepred.NewContext
	NewHybridValue     = valuepred.NewHybrid
	DefaultValueConfig = valuepred.DefaultConfig
	NewRPT             = prefetch.NewRPT
	NewNextLine        = prefetch.NewNextLine
	DefaultRPTConfig   = prefetch.DefaultRPTConfig
)

// Timing model (§4.1) for the speedup figures.
type (
	// MachineConfig parameterises the out-of-order timing model.
	MachineConfig = cpu.Config
	// MachineResult reports a timing run's outcome.
	MachineResult = cpu.Result
)

// Timing-model entry points.
var (
	DefaultMachineConfig = cpu.DefaultConfig
	RunMachine           = cpu.Run
)
