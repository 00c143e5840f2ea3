// Package events is the run's decision ledger: a bounded in-memory ring of
// typed, sequence-numbered records for every consequential runtime decision
// — frequency requests and outcomes, resilient-setter actions, tuner sweep
// and cache choices, sampler degradation transitions, rank failures,
// checkpoint and restart actions — exported as JSONL into the run bundle's
// events.jsonl and read back by ReadJSONL.
//
// The ledger exists to make frequency control explainable after the fact:
// each frequency event carries the model's *predicted* time/energy/EDP at
// the applied clock (from the tuner sweep), so a ledger can later be joined
// against internal/attrib achieved rows to ask "what did this decision cost
// or save?" — the `inspect decisions` workflow.
//
// Non-perturbation contract (the same one internal/telemetry holds): a nil
// *Ledger is a valid no-op, every emit is a pure observation with no effect
// on simulation state, and the emit path performs no heap allocation beyond
// the ring's own storage, taken a block of events at a time until the ring
// is full. Emit serializes on one short mutex — decision events are
// per-phase, not per-particle, so the ring never sits on a per-item hot
// loop.
package events

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/blocks"
)

// Type names a decision-event kind.
type Type string

// Event types. The freq-* family mirrors freqctl: a decision is one
// strategy Apply that touched the clock; retry/absorb/clamp/breaker-trip/
// short-circuit mirror freqctl.ResilientEvent kinds.
const (
	RunStart Type = "run-start"
	RunEnd   Type = "run-end"
	StepDone Type = "step"

	FreqDecision     Type = "freq-decision"
	FreqRetry        Type = "freq-retry"
	FreqAbsorb       Type = "freq-absorb"
	FreqClamp        Type = "freq-clamp"
	FreqBreakerTrip  Type = "freq-breaker-trip"
	FreqShortCircuit Type = "freq-short-circuit"

	TunerMeasure Type = "tuner-measure"
	TunerSelect  Type = "tuner-select"

	SamplerDegraded  Type = "sampler-degraded"
	SamplerRecovered Type = "sampler-recovered"
	// SamplerOverflow: the rank channels' bounded rings had dropped samples
	// (Value, in all) when the run joined them against its spans, which
	// fails the attribution. At most one per run.
	SamplerOverflow Type = "sampler-overflow"

	RankFail    Type = "rank-fail"
	Degradation Type = "degradation"

	// Recovery family: one event per supervision decision, so `inspect
	// decisions` can audit an interrupted run's full restart/budget timeline.
	CheckpointSave    Type = "checkpoint-save"
	CheckpointRestore Type = "checkpoint-restore"
	Restart           Type = "restart"
	WatchdogStall     Type = "watchdog-stall"
	BudgetStop        Type = "budget-stop"
)

// builtinTypes pre-seeds the per-type counters so steady-state emits never
// insert a new map key (the allocation-free contract).
var builtinTypes = []Type{
	RunStart, RunEnd, StepDone,
	FreqDecision, FreqRetry, FreqAbsorb, FreqClamp, FreqBreakerTrip,
	FreqShortCircuit, TunerMeasure, TunerSelect,
	SamplerDegraded, SamplerRecovered, SamplerOverflow, RankFail, Degradation,
	CheckpointSave, CheckpointRestore, Restart, WatchdogStall, BudgetStop,
}

// Event is one ledger record. Fields are a flat union across the event
// types so records stay fixed-size values (emit copies them into the ring
// without allocating); unused fields marshal away under omitempty.
type Event struct {
	// Seq is the monotonic sequence id, starting at 1. Assigned by Emit.
	Seq uint64 `json:"seq"`
	// TimeS is the virtual time of the decision (0 for pre-run events).
	TimeS float64 `json:"t_s"`
	// Step is the simulation step, -1 outside the stepping loop.
	Step int `json:"step"`
	// Rank is the deciding rank, -1 for global/coordinator events.
	Rank int  `json:"rank"`
	Type Type `json:"type"`
	// Subject is what the decision is about: a function/kernel name for
	// frequency and tuner events, a sensor name for sampler events.
	Subject string `json:"subject,omitempty"`
	// Detail carries the cause or sub-kind: the resilient op, the
	// degradation policy.
	Detail string `json:"detail,omitempty"`
	// RequestedMHz / AppliedMHz are the strategy's target and the achieved
	// clock (post-clamp) for frequency events; AppliedMHz doubles as the
	// candidate clock on tuner events.
	RequestedMHz int `json:"requested_mhz,omitempty"`
	AppliedMHz   int `json:"applied_mhz,omitempty"`
	// Pred* are the model's expectations at AppliedMHz — per kernel
	// invocation — filled from the tuner sweep (SetPredictions). On
	// tuner-measure events they are the sweep measurement itself.
	PredTimeS   float64 `json:"pred_time_s,omitempty"`
	PredEnergyJ float64 `json:"pred_energy_j,omitempty"`
	PredPowerW  float64 `json:"pred_power_w,omitempty"`
	PredEDPJs   float64 `json:"pred_edp_js,omitempty"`
	// Value is a generic numeric payload: step energy (J) on step events,
	// objective score on tuner events, load factor on degradation events.
	Value float64 `json:"value,omitempty"`
	// Cached marks tuner measurements served from the memoizing cache.
	Cached bool `json:"cached,omitempty"`
	// Err carries the triggering error text on resilience events.
	Err string `json:"err,omitempty"`
}

// Prediction is the model's expectation for one kernel at one clock.
type Prediction struct {
	TimeS   float64
	EnergyJ float64
	PowerW  float64
	EDPJs   float64
}

// Predictions maps kernel/function name → clock MHz → expectation.
type Predictions map[string]map[int]Prediction

// Summary is the ledger roll-up attached to core.Result.
type Summary struct {
	// Emitted counts all events ever emitted; Dropped counts those rotated
	// out of the bounded ring (Emitted - retained).
	Emitted uint64 `json:"emitted"`
	Dropped uint64 `json:"dropped"`
	// ByType breaks Emitted down per event type (zero entries omitted).
	ByType map[Type]uint64 `json:"by_type"`
}

// DefaultCap is the default ring capacity: at the paper's ~100 steps a
// ManDyn run emits a few thousand decision events, so the full run is
// retained with room to spare.
const DefaultCap = 1 << 15

// Ledger is the bounded decision-event ring. Safe for concurrent use; a
// nil *Ledger is a valid no-op on every method.
type Ledger struct {
	mu     sync.Mutex
	ring   blocks.Seq[Event] // the retained events, oldest first
	next   uint64            // total emitted; the next event gets Seq next+1
	counts map[Type]uint64
	preds  Predictions
}

// NewLedger creates a ledger retaining the last capacity events
// (DefaultCap when <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	l := &Ledger{
		ring:   blocks.Bounded[Event](capacity),
		counts: make(map[Type]uint64, len(builtinTypes)),
	}
	for _, t := range builtinTypes {
		l.counts[t] = 0
	}
	return l
}

// SetPredictions installs the tuner's per-kernel per-clock expectations;
// subsequent FreqDecision emits carry the matching prediction. Call before
// the run starts.
func (l *Ledger) SetPredictions(p Predictions) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.preds = p
	l.mu.Unlock()
}

// Emit appends one event, assigning its sequence id. The event value is
// copied into the ring, whose storage is allocated a block at a time as the
// run first fills it: steady-state emits do not allocate.
func (l *Ledger) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.emitLocked(ev)
	l.mu.Unlock()
}

// emitLocked is Emit's body; caller holds l.mu.
func (l *Ledger) emitLocked(ev Event) {
	l.next++
	ev.Seq = l.next
	slot, _ := l.ring.Push()
	*slot = ev
	l.counts[ev.Type]++
}

// BeginRun emits the run-start event: the simulation, the strategy and the
// configured step count.
func (l *Ledger) BeginRun(sim, strategy string, steps int) {
	if l == nil {
		return
	}
	l.Emit(Event{Step: -1, Rank: -1, Type: RunStart,
		Subject: sim, Detail: strategy, Value: float64(steps)})
}

// StepDone closes one simulation step: stepEnergyJ is the step's
// allocation energy, timeS the loop virtual time at the step boundary.
func (l *Ledger) StepDone(timeS float64, step int, stepEnergyJ float64) {
	if l == nil {
		return
	}
	l.Emit(Event{TimeS: timeS, Step: step, Rank: -1, Type: StepDone,
		Value: stepEnergyJ})
}

// EndRun emits the run-end event.
func (l *Ledger) EndRun(timeS float64) {
	if l == nil {
		return
	}
	l.Emit(Event{TimeS: timeS, Step: -1, Rank: -1, Type: RunEnd})
}

// FreqDecision records one strategy Apply that touched the clock,
// attaching the model's prediction at the applied clock when one is known.
func (l *Ledger) FreqDecision(timeS float64, step, rank int, function string, requestedMHz, appliedMHz int) {
	if l == nil {
		return
	}
	ev := Event{
		TimeS: timeS, Step: step, Rank: rank, Type: FreqDecision,
		Subject: function, RequestedMHz: requestedMHz, AppliedMHz: appliedMHz,
	}
	l.mu.Lock()
	if byClock, ok := l.preds[function]; ok {
		if p, ok := byClock[appliedMHz]; ok {
			ev.PredTimeS = p.TimeS
			ev.PredEnergyJ = p.EnergyJ
			ev.PredPowerW = p.PowerW
			ev.PredEDPJs = p.EDPJs
		}
	}
	l.emitLocked(ev)
	l.mu.Unlock()
}

// Emitted returns the total number of events emitted so far.
func (l *Ledger) Emitted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len returns the number of retained events.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Summary returns the ledger roll-up (only non-zero type counts).
func (l *Ledger) Summary() *Summary {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Summary{Emitted: l.next, ByType: make(map[Type]uint64)}
	s.Dropped = l.next - uint64(l.ring.Len())
	for t, c := range l.counts {
		if c > 0 {
			s.ByType[t] = c
		}
	}
	return s
}

// Events returns a copy of all retained events in sequence order.
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.AppendTo(nil)
}

// ledgerBytesPerEvent sizes WriteJSONL's buffer from the event count: a
// frequency decision with its four predictions is some 290 bytes, most
// other events half that.
const ledgerBytesPerEvent = 320

// WriteJSONL writes the events retained when it is called as one JSON
// object per line, in sequence order: one consistent snapshot, encoded
// straight out of the ring into one buffer under a single hold of the lock
// (no Events() copy; at most the ring's capacity in lines) and handed to
// the writer once the lock is released.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	var enc eventEncoder
	l.mu.Lock()
	enc.buf = make([]byte, 0, l.ring.Len()*ledgerBytesPerEvent)
	l.ring.Runs(func(run []Event) {
		for i := range run {
			enc.event(&run[i])
		}
	})
	l.mu.Unlock()
	if enc.err != nil {
		return enc.err
	}
	_, err := w.Write(enc.buf)
	return err
}

// WriteFile writes the JSONL export to path atomically: a crash mid-write
// never leaves a truncated ledger under the final name.
func (l *Ledger) WriteFile(path string) error {
	if l == nil {
		return nil
	}
	return atomicio.WriteFile(path, l.WriteJSONL)
}

// ReadJSONL parses a ledger export. A malformed line — the tail of a run
// killed mid-write, or damage anywhere before it — ends the parse there and
// reports truncated=true rather than erroring: what precedes it is returned,
// what follows it is not read, and interrupted runs stay auditable.
func ReadJSONL(r io.Reader) (evs []Event, truncated bool, err error) {
	evs, _, truncated, err = readJSONL(r)
	return evs, truncated, err
}

// readBlock is how many events readJSONL decodes into one block.
const readBlock = 512

// readJSONL is ReadJSONL that also returns the length of the valid prefix:
// the offset just past the last line that parsed. Events are decoded in
// place into blocks and copied once into a result of exactly their number:
// an Event is 176 bytes, and growing one slice by append would copy a long
// ledger five times over and keep a quarter more than it holds.
func readJSONL(r io.Reader) (evs []Event, valid int64, truncated bool, err error) {
	var consumed int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		consumed += int64(advance)
		return advance, token, err
	})
	dec := newEventDecoder()
	var full [][]Event
	var block []Event
	for !truncated && sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			if len(block) == cap(block) {
				if block != nil {
					full = append(full, block)
				}
				block = make([]Event, 0, readBlock)
			}
			block = append(block, Event{})
			if !dec.decode(line, &block[len(block)-1]) {
				block, truncated = block[:len(block)-1], true
				continue
			}
		}
		valid = consumed
	}
	if serr := sc.Err(); serr != nil {
		truncated, err = true, fmt.Errorf("events: read: %w", serr)
	}
	if n := len(full)*readBlock + len(block); n > 0 {
		evs = make([]Event, 0, n)
		for _, b := range full {
			evs = append(evs, b...)
		}
		evs = append(evs, block...)
	}
	return evs, valid, truncated, err
}

// ReadFile parses a JSONL ledger export from path. beyond is how many bytes
// of the file lie past the valid prefix ReadJSONL would return — 0 for a
// file read to its end.
func ReadFile(path string) (evs []Event, beyond int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("events: %w", err)
	}
	defer f.Close()
	evs, valid, _, err := readJSONL(f)
	if err != nil {
		return evs, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return evs, 0, fmt.Errorf("events: %w", err)
	}
	return evs, fi.Size() - valid, nil
}
