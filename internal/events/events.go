// Package events is the run's decision ledger: a bounded in-memory ring of
// typed, sequence-numbered records for every consequential runtime decision
// — frequency requests and outcomes, clock-set retries and breaker trips,
// tuner sweep and cache choices, sampler degradation transitions, rank
// failures and budget stops — exported as JSONL into the run bundle's
// events.jsonl and read back by ReadJSONL.
//
// The ledger exists to make frequency control explainable after the fact.
// Each fact is one record: a frequency decision names the function and the
// clock it applied, and the model's prediction at that clock is the tuner
// sweep's tuner-measure row for the same function and clock, which the
// ledger keeps as its preamble however long the run. `inspect decisions`
// joins the two, and the attribution's achieved rows beside them, to ask
// "what did this decision cost or save?".
//
// Non-perturbation contract (the same one internal/telemetry holds): a nil
// *Ledger is a valid no-op, every emit is a pure observation with no effect
// on simulation state, and the emit path performs no heap allocation beyond
// the ring's own storage, taken a block of records at a time until the
// ring is full. A ledger belongs to the goroutine that drives its run and
// has no lock — decision events are per-phase, not per-particle, so the
// ring never sits on a per-item hot loop.
package events

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/blocks"
)

// Type names a decision-event kind.
type Type string

// Event types. The freq-* family is a rank's clock control: a decision is
// one strategy Apply that touched the clock; retry/absorb/clamp/
// breaker-trip/short-circuit are the actions of the retry and breaker
// policy a rank's clock sets run under a fault plan.
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

	// BudgetStop: a walltime or energy budget (Detail) ended the run at a
	// step boundary, with the allocation's energy (Value) at that point.
	BudgetStop Type = "budget-stop"
)

// NotApplied is the Detail of a freq-decision whose set never reached the
// device: refused, absorbed after its retries, or short-circuited by a
// latched breaker. Its AppliedMHz is the clock the device ran.
const NotApplied = "not-applied"

// builtinTypes pre-seeds the per-type counters so steady-state emits never
// insert a new map key (the allocation-free contract).
var builtinTypes = []Type{
	RunStart, RunEnd, StepDone,
	FreqDecision, FreqRetry, FreqAbsorb, FreqClamp, FreqBreakerTrip,
	FreqShortCircuit, TunerMeasure, TunerSelect,
	SamplerDegraded, SamplerRecovered, SamplerOverflow, RankFail, Degradation,
	BudgetStop,
}

// Event is one ledger record. Fields are a flat union across the event
// types; unused fields marshal away under omitempty, and the ledger packs
// each event into a record of the fields it sets (record.go).
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
	// Detail carries the cause or sub-kind: the run's strategy, a sampler
	// or budget cause, the degradation policy, NotApplied on a decision
	// whose set never reached the device.
	Detail string `json:"detail,omitempty"`
	// RequestedMHz / AppliedMHz are the strategy's target and the achieved
	// clock (post-clamp) for frequency events, on a NotApplied decision the
	// clock the device ran instead; AppliedMHz doubles as the candidate
	// clock on tuner events.
	RequestedMHz int `json:"requested_mhz,omitempty"`
	AppliedMHz   int `json:"applied_mhz,omitempty"`
	// Pred* are the tuner's per-invocation expectations at AppliedMHz, on
	// its own tuner-measure and tuner-select rows only: a frequency
	// decision is joined to them by subject and clock.
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

// Ledger is the bounded decision-event ring. A nil *Ledger is a valid no-op
// on every method. A ledger belongs to the goroutine that drives its run
// (and the tuning sweep before it), so it has no lock: it is written out
// once the run has returned.
//
// The ledger keeps its preamble: at the first run-start, the events it
// holds — in every program that writes a ledger, the tuner sweep — and that
// run-start are pinned, and from then on the ring rotates only the events
// that follow them, in what is left of the capacity. A long run thus keeps
// the sweep its decisions are joined to and the header that names it. A
// preamble that would leave no room for the run is not pinned.
//
// Each event is kept as a packed record (record.go), numbered by its place:
// the preamble's from 1, the ring's up to the last emitted.
type Ledger struct {
	capacity int
	pre      blocks.Records // the pinned preamble, empty until it is pinned
	ring     blocks.Records // the retained events after it, oldest first
	next     uint64         // total emitted; the next event gets Seq next+1
	counts   map[Type]uint64
	rec      []byte // Emit's scratch record
}

// NewLedger creates a ledger retaining at most capacity events (DefaultCap
// when <= 0): its preamble and the newest of the events after it.
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	l := &Ledger{
		capacity: capacity,
		ring:     blocks.BoundedRecords(capacity),
		counts:   make(map[Type]uint64, len(builtinTypes)),
	}
	for _, t := range builtinTypes {
		l.counts[t] = 0
	}
	return l
}

// Emit appends one event, its sequence id the next. The event is packed
// into the ring, whose storage is allocated a block at a time as the run
// first fills it: steady-state emits do not allocate.
func (l *Ledger) Emit(ev Event) {
	if l == nil {
		return
	}
	l.next++
	l.rec = appendRecord(l.rec[:0], &ev)
	l.ring.Push(l.rec)
	l.counts[ev.Type]++
	if ev.Type == RunStart && l.pre.Len() == 0 {
		l.pinPreamble()
	}
}

// pinPreamble moves the events the ring holds into the preamble and leaves
// the rest of the capacity to the ring. A ring that is full keeps rotating
// as it is, and so does every later run-start on it.
//
// A ring that is not full has dropped nothing, so the preamble is the
// events numbered 1 to its length.
func (l *Ledger) pinPreamble() {
	n := l.ring.Len()
	if n >= l.capacity {
		return
	}
	l.pre, l.ring = l.ring, blocks.BoundedRecords(l.capacity-n)
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

// Emitted returns the total number of events emitted so far.
func (l *Ledger) Emitted() uint64 {
	if l == nil {
		return 0
	}
	return l.next
}

// Len returns the number of retained events.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return l.pre.Len() + l.ring.Len()
}

// Summary returns the ledger roll-up (only non-zero type counts).
func (l *Ledger) Summary() *Summary {
	if l == nil {
		return nil
	}
	s := &Summary{Emitted: l.next, ByType: make(map[Type]uint64)}
	s.Dropped = l.next - uint64(l.pre.Len()+l.ring.Len())
	for t, c := range l.counts {
		if c > 0 {
			s.ByType[t] = c
		}
	}
	return s
}

// ledgerBytesPerEvent sizes WriteJSONL's buffer from the event count: a
// frequency decision, most of a tuned run's rows, is some 150 bytes; a
// tuner row with its four predictions some 275, a step row 100.
const ledgerBytesPerEvent = 160

// WriteJSONL writes the retained events as one JSON object per line, in
// sequence order: each record is decoded into one reused Event and encoded
// into one buffer (at most the ring's capacity in lines), handed to the
// writer in one write.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	var enc eventEncoder
	enc.buf = make([]byte, 0, l.Len()*ledgerBytesPerEvent)
	l.each(func(ev *Event) { enc.event(ev) })
	if enc.err != nil {
		return enc.err
	}
	_, err := w.Write(enc.buf)
	return err
}

// each calls fn with every retained event in sequence order, decoded into
// one Event it reuses.
func (l *Ledger) each(fn func(ev *Event)) {
	dec := recordDecoder{names: make(map[string]string, 64)}
	var ev Event
	seq := uint64(1)
	visit := func(rec []byte) {
		dec.decode(rec, seq, &ev)
		fn(&ev)
		seq++
	}
	l.pre.Each(visit)
	seq = l.next - uint64(l.ring.Len()) + 1
	l.ring.Each(visit)
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
// an Event is 160 bytes, and growing one slice by append would copy a long
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
