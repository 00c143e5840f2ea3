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
// The package deliberately depends only on internal/rng. The sensor
// back-ends (nvml, rsmi, pmcounters) expose a FaultHook of the shared
// shape func(op string, arg int) (int, error); SensorHook and ClockHook
// adapt an Injector to that shape, returning the sentinel errors below that
// the pmt layer translates into stuck or invalid readings.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"sphenergy/internal/rng"
)

// Sentinel errors carried through the back-end fault hooks. The pmt sensor
// layer inspects them with errors.Is to decide what a failed read looks
// like to the sampler.
var (
	// ErrTransient marks a one-off read/operation failure; pmt sensors
	// surface it as a NaN reading the sampler counts and discards.
	ErrTransient = errors.New("faults: injected transient error")
	// ErrStuck marks a stale/stuck reading; pmt sensors replay their last
	// good state so consumers see a frozen value, and pm_counters skip
	// their collection tick (the staleness failure mode of the measurement
	// paper).
	ErrStuck = errors.New("faults: injected stuck reading")
	// ErrRejected marks a clock-control request the platform refused — the
	// production failure mode of user-level DVFS requests.
	ErrRejected = errors.New("faults: injected rejected clock set")
)

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

// ParsePlan decodes a plan from JSON and validates it.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
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
// are created or scheduled. An injector is safe for concurrent use, though
// per-rank injection points are single-goroutine in practice.
type Injector struct {
	stream string

	mu    sync.Mutex
	rng   *rng.Rand
	rules []Rule
	burst []int  // remaining burst per rule
	fired []bool // step-pinned rules fire once
	count map[Kind]uint64
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
	in.mu.Lock()
	defer in.mu.Unlock()
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

// InjectorState is an injector's checkpointable state: the RNG stream
// position, per-rule burst/fired latches, and injection counts. The rule
// set itself is rebuilt from the plan, so State carries only what a
// restored run needs to continue the exact same fault sequence.
type InjectorState struct {
	Stream string
	RNG    [4]uint64
	Burst  []int
	Fired  []bool
	Counts map[Kind]uint64
}

// State captures the injector's checkpointable state. Nil injectors
// return a zero state (Stream "").
func (in *Injector) State() InjectorState {
	if in == nil {
		return InjectorState{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := InjectorState{
		Stream: in.stream,
		RNG:    in.rng.State(),
		Burst:  append([]int(nil), in.burst...),
		Fired:  append([]bool(nil), in.fired...),
		Counts: make(map[Kind]uint64, len(in.count)),
	}
	for k, v := range in.count {
		st.Counts[k] = v
	}
	return st
}

// Restore installs a state captured by State on an injector built from
// the same plan (same stream, same rule count). Restoring a nil injector
// with a zero state is a no-op.
func (in *Injector) Restore(st InjectorState) error {
	if in == nil {
		if st.Stream == "" {
			return nil
		}
		return fmt.Errorf("faults: restore stream %q onto nil injector", st.Stream)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st.Stream != in.stream {
		return fmt.Errorf("faults: restore stream mismatch: injector %q, state %q", in.stream, st.Stream)
	}
	if len(st.Burst) != len(in.rules) || len(st.Fired) != len(in.rules) {
		return fmt.Errorf("faults: restore rule-count mismatch on %q: injector has %d rules, state %d/%d",
			in.stream, len(in.rules), len(st.Burst), len(st.Fired))
	}
	in.rng.SetState(st.RNG)
	copy(in.burst, st.Burst)
	copy(in.fired, st.Fired)
	for k := range in.count {
		delete(in.count, k)
	}
	for k, v := range st.Counts {
		in.count[k] = v
	}
	return nil
}

// DisarmPinnedCrashes marks every step-pinned rank-crash rule as already
// fired and returns how many it disarmed. The supervisor calls it after a
// restore: a step-pinned crash models a transient rank death, and the
// restarted process replaying past the crash step must not die again to
// the same injection — otherwise recovery could never make progress.
// Probabilistic crash rules are unaffected (and remain bounded by the
// supervisor's restart budget).
func (in *Injector) DisarmPinnedCrashes() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for i, r := range in.rules {
		if r.Kind == RankCrash && r.Step > 0 && !in.fired[i] {
			in.fired[i] = true
			n++
		}
	}
	return n
}

// Counts returns the per-kind injection counts so far.
func (in *Injector) Counts() map[Kind]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]uint64, len(in.count))
	for k, v := range in.count {
		out[k] = v
	}
	return out
}

// SensorHook adapts the injector to the back-end FaultHook shape for a
// sensor read path: transient faults become ErrTransient, stuck and
// latency faults become ErrStuck. now supplies the component's virtual
// clock for window evaluation.
func (in *Injector) SensorHook(now func() float64) func(op string, arg int) (int, error) {
	if in == nil {
		return nil
	}
	return func(op string, arg int) (int, error) {
		d := in.Evaluate(now(), -1, Transient, Stuck, Latency)
		switch d.Kind {
		case Transient:
			return arg, fmt.Errorf("%w (%s)", ErrTransient, op)
		case Stuck, Latency:
			return arg, fmt.Errorf("%w (%s)", ErrStuck, op)
		}
		return arg, nil
	}
}

// ClockHook adapts the injector to the back-end FaultHook shape for the
// clock-control path: clamped-clock rules cap the requested MHz at the
// rule ceiling, rejected-set rules fail the request with ErrRejected.
func (in *Injector) ClockHook(now func() float64) func(op string, mhz int) (int, error) {
	if in == nil {
		return nil
	}
	return func(op string, mhz int) (int, error) {
		d := in.Evaluate(now(), -1, ClampedClock, RejectedSet)
		switch d.Kind {
		case RejectedSet:
			return mhz, fmt.Errorf("%w (%s %d MHz)", ErrRejected, op, mhz)
		case ClampedClock:
			if d.Rule.MHz > 0 && mhz > d.Rule.MHz {
				return d.Rule.MHz, nil
			}
		}
		return mhz, nil
	}
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
