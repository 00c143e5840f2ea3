// Package faults is a seeded, deterministic fault-injection framework for
// the measurement stack. Real deployments of the paper's pipeline do not
// run on perfectly healthy nodes: pm_counters go stale and sensors skip
// collection windows (Simsek et al., arXiv:2312.05102 §IV), DVFS requests
// are rejected or clamped by the platform (Calore et al., arXiv:1703.02788
// §5), and ranks straggle or die. A Plan describes such misbehaviour as a
// set of Rules — each with a fault Kind, an activation probability, a burst
// length and a virtual-time window — and Injectors evaluate the rules for
// one target instance (one rank's sensor, one node's pm_counters view, one
// clock-control path, one rank's execution).
//
// Determinism is the load-bearing property: every injector derives its
// random stream from (plan seed, target, instance), so two runs of the same
// simulation with the same plan inject byte-identical fault sequences
// regardless of goroutine scheduling — which is what lets core's
// TestChaosRunDeterministic assert bit-identical degraded output across
// repeated runs.
//
// This package is the one place that knows what an injected fault looks
// like to the measurement stack. Sensor wraps a pmt.Sensor and Setter wraps
// a freqctl.Setter, so PMT's sensors and freqctl stay fault-free; MissTick drives the pm_counters collection hook; the runner
// (internal/core) calls Evaluate itself for rank stragglers and crashes.
package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"
	"strings"

	"sphenergy/internal/freqctl"
	"sphenergy/internal/pmt"
	"sphenergy/internal/rng"
)

// ErrRejected marks a clock-control request the platform refused — the
// production failure mode of user-level DVFS requests.
var ErrRejected = errors.New("faults: injected rejected clock set")

// Kind enumerates the fault behaviours a Rule can inject.
type Kind string

// Fault kinds.
const (
	// Transient fails one operation (sensor read error, spurious EIO).
	Transient Kind = "transient"
	// Stuck freezes a sensor at its last value for the burst duration.
	Stuck Kind = "stuck"
	// Latency delays a reading by one collection window — observationally a
	// short stale stretch, the sensor-rate gap of arXiv:2312.05102.
	Latency Kind = "latency"
	// ClampedClock caps clock-set requests at Rule.MHz, the platform
	// clamping production DVFS requests silently hit.
	ClampedClock Kind = "clamped-clock"
	// RejectedSet refuses clock-set requests outright.
	RejectedSet Kind = "rejected-set"
	// Straggler multiplies a rank's phase duration by Rule.Factor.
	Straggler Kind = "straggler"
	// RankCrash kills a rank (at Rule.Step when set, otherwise
	// probabilistically inside the window).
	RankCrash Kind = "rank-crash"
)

// Target selects which injection point a rule applies to.
type Target string

// Injection targets.
const (
	// TargetSensor is the in-band per-rank GPU/CPU sensor read path
	// (NVML, ROCm-SMI).
	TargetSensor Target = "sensor"
	// TargetNodeSensor is the out-of-band node path (pm_counters/BMC).
	TargetNodeSensor Target = "node-sensor"
	// TargetClock is the clock-control path (application-clock sets).
	TargetClock Target = "clock"
	// TargetRank is rank execution (stragglers, crashes).
	TargetRank Target = "rank"
)

// Rule is one fault behaviour. Zero Probability means "always fire while
// the window/step matches" — rules that should never fire are simply
// omitted from the plan.
type Rule struct {
	Kind   Kind   `json:"kind"`
	Target Target `json:"target"`
	// Probability is the per-operation activation chance in [0,1];
	// 0 means always (window/step-scoped rules).
	Probability float64 `json:"probability,omitempty"`
	// Burst keeps the fault active for this many consecutive operations
	// once activated (default 1).
	Burst int `json:"burst,omitempty"`
	// StartS/EndS bound the activation window in virtual time; EndS 0
	// leaves the window open-ended.
	StartS float64 `json:"start_s,omitempty"`
	EndS   float64 `json:"end_s,omitempty"`
	// Ranks restricts the rule to specific ranks (or node indices for
	// node-sensor rules); empty applies everywhere.
	Ranks []int `json:"ranks,omitempty"`
	// MHz is the clamped-clock ceiling.
	MHz int `json:"mhz,omitempty"`
	// Factor is the straggler slowdown multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Step pins a rank-crash to one simulation step (deterministic crash).
	Step int `json:"step,omitempty"`
}

// matches reports whether the rule applies to a target instance.
func (r Rule) matches(target Target, instance int) bool {
	if r.Target != target {
		return false
	}
	if len(r.Ranks) == 0 || instance < 0 {
		return true
	}
	for _, x := range r.Ranks {
		if x == instance {
			return true
		}
	}
	return false
}

// inWindow reports whether nowS lies in the rule's activation window.
func (r Rule) inWindow(nowS float64) bool {
	if nowS < r.StartS {
		return false
	}
	return r.EndS == 0 || nowS < r.EndS
}

// Validate rejects malformed rules.
func (r Rule) Validate() error {
	switch r.Kind {
	case Transient, Stuck, Latency, ClampedClock, RejectedSet, Straggler, RankCrash:
	default:
		return fmt.Errorf("faults: unknown kind %q", r.Kind)
	}
	switch r.Target {
	case TargetSensor, TargetNodeSensor, TargetClock, TargetRank:
	default:
		return fmt.Errorf("faults: unknown target %q", r.Target)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("faults: probability %g outside [0,1]", r.Probability)
	}
	if r.EndS != 0 && r.EndS <= r.StartS {
		return fmt.Errorf("faults: empty window [%g,%g)", r.StartS, r.EndS)
	}
	if r.Kind == ClampedClock && r.MHz <= 0 {
		return fmt.Errorf("faults: clamped-clock needs a positive mhz ceiling")
	}
	if r.Kind == Straggler && r.Factor <= 1 {
		return fmt.Errorf("faults: straggler needs factor > 1, got %g", r.Factor)
	}
	return nil
}

// Plan is a named, seeded set of fault rules — the unit the -fault-plan
// flag loads and the chaos harness sweeps.
type Plan struct {
	// Name labels the plan in reports.
	Name string `json:"name,omitempty"`
	// Seed drives every injector stream; two runs with equal seed and rules
	// inject identical fault sequences.
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate rejects malformed plans.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// Active reports whether the plan injects anything.
func (p *Plan) Active() bool { return p != nil && len(p.Rules) > 0 }

// ParsePlan decodes a plan from one JSON object, with nothing but
// whitespace after it, and validates it.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("faults: parse plan: data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads a plan from a JSON file (or inline JSON when the argument
// starts with '{', the convenience the -fault-plan flag documents).
func LoadPlan(pathOrJSON string) (*Plan, error) {
	if strings.HasPrefix(strings.TrimSpace(pathOrJSON), "{") {
		return ParsePlan([]byte(pathOrJSON))
	}
	data, err := os.ReadFile(pathOrJSON)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return ParsePlan(data)
}

// Injector evaluates a plan's rules for one target instance. Each injector
// owns an independent deterministic stream derived from (seed, target,
// instance), so injection sequences do not depend on the order injectors
// are created or scheduled. An injector belongs to the goroutine that
// drives its run, as the rank, sensor or node it injects into does, so it
// has no lock.
type Injector struct {
	stream string
	rng    *rng.Rand
	rules  []Rule
	burst  []int  // remaining burst per rule
	fired  []bool // step-pinned rules fire once
	count  map[Kind]uint64
}

// Injector builds the evaluator for one target instance (rank index, node
// index, or -1 for a singleton). A nil plan returns a nil injector, and a
// nil *Injector is a valid never-fires no-op.
func (p *Plan) Injector(target Target, instance int) *Injector {
	if !p.Active() {
		return nil
	}
	in := &Injector{
		stream: fmt.Sprintf("%s/%d", target, instance),
		count:  map[Kind]uint64{},
	}
	for _, r := range p.Rules {
		if r.matches(target, instance) {
			in.rules = append(in.rules, r)
		}
	}
	in.burst = make([]int, len(in.rules))
	in.fired = make([]bool, len(in.rules))
	// Stream seed: SplitMix-style hash of the plan seed and stream name so
	// distinct targets get decorrelated streams from the same plan seed.
	h := p.Seed ^ 0x9E3779B97F4A7C15
	for _, b := range []byte(in.stream) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	in.rng = rng.New(h)
	return in
}

// Decision is the outcome of evaluating the active rules for one
// operation: the fired rule, or Kind "" when no fault applies.
type Decision struct {
	Kind Kind
	Rule Rule
}

// None reports whether no fault fired.
func (d Decision) None() bool { return d.Kind == "" }

// Evaluate draws the injector's rules for one operation at virtual time
// nowS (step -1 outside the stepping loop) restricted to the given kinds
// (all when empty). Every matching in-window rule consumes exactly one
// state transition per call, so the stream stays aligned whichever rule
// fires; the first firing rule in plan order wins.
func (in *Injector) Evaluate(nowS float64, step int, kinds ...Kind) Decision {
	if in == nil {
		return Decision{}
	}
	var out Decision
	for i, r := range in.rules {
		if len(kinds) > 0 {
			ok := false
			for _, k := range kinds {
				if k == r.Kind {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		fire := false
		switch {
		case r.Kind == RankCrash && r.Step > 0:
			// Step-pinned crash: deterministic, fires exactly once.
			fire = step == r.Step && !in.fired[i]
			if fire {
				in.fired[i] = true
			}
		case in.burst[i] > 0:
			in.burst[i]--
			fire = true
		case !r.inWindow(nowS):
			// Outside the window the rule is dormant and draws nothing.
		case r.Probability == 0 || in.rng.Float64() < r.Probability:
			fire = true
			if r.Burst > 1 {
				in.burst[i] = r.Burst - 1
			}
		}
		if fire && out.None() {
			out = Decision{Kind: r.Kind, Rule: r}
			in.count[r.Kind]++
		}
	}
	return out
}

// Counts returns the per-kind injection counts so far.
func (in *Injector) Counts() map[Kind]uint64 {
	if in == nil {
		return nil
	}
	return maps.Clone(in.count)
}

// Sensor wraps a GPU sensor in the injector's sensor faults, evaluated once
// per Read at now(), the device's virtual clock: a transient fault reads
// NaN energy at now(); a stuck or latency fault replays the last good
// state, as a stale counter does (NaN before there is one); a read without
// a fault reaches s and is remembered. A nil injector returns s itself.
func (in *Injector) Sensor(s pmt.Sensor, now func() float64) pmt.Sensor {
	if in == nil {
		return s
	}
	return &faultySensor{Sensor: s, in: in, now: now}
}

type faultySensor struct {
	pmt.Sensor
	in   *Injector
	now  func() float64
	last pmt.State
	good bool // last holds a good read
}

func (s *faultySensor) Read() pmt.State {
	t := s.now()
	switch s.in.Evaluate(t, -1, Transient, Stuck, Latency).Kind {
	case Transient:
		return pmt.State{TimeS: t, EnergyJ: math.NaN()}
	case Stuck, Latency:
		if !s.good {
			return pmt.State{TimeS: t, EnergyJ: math.NaN()}
		}
		return s.last
	}
	s.last, s.good = s.Sensor.Read(), true
	return s.last
}

// Setter wraps a clock-control path in the injector's clock faults,
// evaluated once per SetSMClock at now(): a rejected set fails with
// ErrRejected, a clamped clock caps the request at the rule's ceiling
// before it reaches inner. The other operations pass through. A nil
// injector returns inner itself.
func (in *Injector) Setter(inner freqctl.Setter, now func() float64) freqctl.Setter {
	if in == nil {
		return inner
	}
	return &faultySetter{Setter: inner, in: in, now: now}
}

type faultySetter struct {
	freqctl.Setter
	in  *Injector
	now func() float64
}

func (s *faultySetter) SetSMClock(mhz int) (int, error) {
	d := s.in.Evaluate(s.now(), -1, ClampedClock, RejectedSet)
	switch d.Kind {
	case RejectedSet:
		return 0, fmt.Errorf("%w (clock-set %d MHz)", ErrRejected, mhz)
	case ClampedClock:
		if d.Rule.MHz > 0 {
			mhz = min(mhz, d.Rule.MHz)
		}
	}
	return s.Setter.SetSMClock(mhz)
}

// MissTick is the pm_counters collection hook for a node-sensor injector:
// a due collection tick is missed when a transient, stuck or latency fault
// fires at now(). A nil injector returns nil, which misses nothing.
func (in *Injector) MissTick(now func() float64) func() bool {
	if in == nil {
		return nil
	}
	return func() bool { return !in.Evaluate(now(), -1, Transient, Stuck, Latency).None() }
}

// RankFailure records one injected rank death at step granularity.
type RankFailure struct {
	Rank  int     `json:"rank"`
	TimeS float64 `json:"time_s"`
	Step  int     `json:"step"`
}

// Report summarizes what a fault plan did to one run: injections per
// target stream, the resilience layer's reactions, and the rank failures
// the degradation policy handled. The runner assembles it; the chaos
// harness asserts on it.
type Report struct {
	Plan        string           `json:"plan,omitempty"`
	Degradation string           `json:"degradation"`
	Injected    []InjectionCount `json:"injected,omitempty"`
	// Aggregated resilience counters across all rank clock setters.
	Retries       uint64 `json:"retries,omitempty"`
	Absorbed      uint64 `json:"absorbed,omitempty"`
	Clamped       uint64 `json:"clamped,omitempty"`
	ShortCircuits uint64 `json:"short_circuits,omitempty"`
	BreakerTrips  uint64 `json:"breaker_trips,omitempty"`
	BrokenRanks   int    `json:"broken_ranks,omitempty"`
	// SamplerDegraded reports whether any sampling channel served
	// estimated or discarded readings.
	SamplerDegraded bool          `json:"sampler_degraded,omitempty"`
	Failures        []RankFailure `json:"failures,omitempty"`
}

// InjectionCount is one (stream, kind) injection tally — the
// deterministic, sortable unit fault summaries are built from.
type InjectionCount struct {
	Stream string `json:"stream"`
	Kind   Kind   `json:"kind"`
	Count  uint64 `json:"count"`
}

// CollectCounts folds a set of injectors into a deterministic, sorted
// tally (nil injectors and zero counts are skipped).
func CollectCounts(injectors ...*Injector) []InjectionCount {
	var out []InjectionCount
	for _, in := range injectors {
		if in == nil {
			continue
		}
		for k, v := range in.Counts() {
			if v > 0 {
				out = append(out, InjectionCount{Stream: in.stream, Kind: k, Count: v})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Stream != out[b].Stream {
			return out[a].Stream < out[b].Stream
		}
		return out[a].Kind < out[b].Kind
	})
	return out
}
