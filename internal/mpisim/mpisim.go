// Package mpisim models the MPI layer of an SPH-EXA run at the fidelity the
// energy accounting needs: a set of ranks bound one-to-one to GPU dies,
// bulk-synchronous execution of the instrumented functions, and an
// analytic communication cost model (latency/bandwidth with log-scaling
// collectives) for the halo exchanges and reductions between them.
//
// Ranks are simulated state, not host threads: a phase steps them one after
// the other, in rank order, on the caller's goroutine. Simulated durations
// live on each rank's virtual clock, and barriers synchronize the virtual
// clocks exactly like MPI collectives synchronize real ranks — slower ranks
// make faster ones wait. A rank's kernel is a few dozen nanoseconds of
// analytic model, far below the cost of handing it to another goroutine;
// host parallelism belongs one level up, across independent runs
// (par.Tasks). A World therefore belongs to the goroutine that runs it and
// carries no locks.
package mpisim

import (
	"fmt"
	"math"

	"sphenergy/internal/rng"
)

// Network is a latency/bandwidth communication cost model, the familiar
// alpha-beta (Hockney) model with logarithmic collective scaling.
type Network struct {
	// LatencyS is the per-message software+wire latency (alpha).
	LatencyS float64
	// BandwidthBs is the per-link bandwidth in bytes/second (1/beta).
	BandwidthBs float64
	// RanksPerNode lets intra-node transfers use the faster fabric.
	RanksPerNode int
	// IntraNodeFactor scales bandwidth up (and latency down) within a node.
	IntraNodeFactor float64
}

// DefaultNetwork returns a Slingshot-class fabric model: 2 µs latency,
// 24 GB/s effective per-rank bandwidth, 8 ranks per node.
func DefaultNetwork(ranksPerNode int) Network {
	return Network{
		LatencyS:        2e-6,
		BandwidthBs:     24e9,
		RanksPerNode:    ranksPerNode,
		IntraNodeFactor: 4,
	}
}

// PointToPointS returns the time to move `bytes` between two ranks.
func (n Network) PointToPointS(bytes float64, sameNode bool) float64 {
	lat, bw := n.LatencyS, n.BandwidthBs
	if sameNode && n.IntraNodeFactor > 1 {
		lat /= n.IntraNodeFactor
		bw *= n.IntraNodeFactor
	}
	return lat + bytes/bw
}

// AllreduceS returns the time for an allreduce of `bytes` across `ranks`
// ranks (recursive doubling: ceil(log2 P) rounds).
func (n Network) AllreduceS(bytes float64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(ranks)))
	return rounds * (n.LatencyS + bytes/n.BandwidthBs)
}

// AllgatherS returns the time for an allgather where each rank contributes
// `bytesPerRank` (ring algorithm: P-1 rounds of neighbor exchange).
func (n Network) AllgatherS(bytesPerRank float64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	return float64(ranks-1) * (n.LatencyS + bytesPerRank/n.BandwidthBs)
}

// BroadcastS returns the time for a broadcast of `bytes` from one rank
// (binomial tree: ceil(log2 P) rounds).
func (n Network) BroadcastS(bytes float64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(ranks)))
	return rounds * (n.LatencyS + bytes/n.BandwidthBs)
}

// ReduceScatterS returns the time for a reduce-scatter where each rank
// ends with `bytesPerRank` of the reduced result (ring: P-1 rounds over
// shrinking blocks ≈ total payload once over the wire).
func (n Network) ReduceScatterS(bytesPerRank float64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	return float64(ranks-1)*n.LatencyS + bytesPerRank*float64(ranks-1)/n.BandwidthBs
}

// HaloExchangeS returns the time for the nearest-neighbor halo exchange of
// an SPH domain: each rank exchanges `haloBytes` with ~6 SFC-neighbor ranks
// concurrently (bandwidth shared).
func (n Network) HaloExchangeS(haloBytes float64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	const neighbors = 6
	return n.LatencyS*neighbors + haloBytes*neighbors/n.BandwidthBs
}

// SpanRecorder receives per-rank synchronization spans from the world —
// the collective-wait timeline of the run. telemetry.Tracer implements it;
// keeping the interface local leaves mpisim dependency-free.
type SpanRecorder interface {
	RecordSpan(rank int, category, name string, startS, durS float64)
}

// RankFault describes one injected rank misbehaviour for a phase, the
// local hook shape that keeps mpisim free of a faults dependency (the
// same pattern the sensor back-ends use).
type RankFault struct {
	// SlowFactor > 1 stretches the rank's phase duration (a straggler:
	// thermal throttling, a congested NIC, a noisy neighbour).
	SlowFactor float64
	// Crash kills the rank at the end of the phase; it stops executing
	// and stops participating in barriers.
	Crash bool
}

// RankFaultHook is consulted once per alive rank per Execute phase with
// the rank's virtual clock at phase end.
type RankFaultHook func(rank int, nowS float64) RankFault

// StragglerObserver is notified when injection stretches a rank's phase
// by extra seconds, so callers can keep co-simulated clocks (the rank's
// GPU) aligned with the rank clock.
type StragglerObserver func(rank int, extraS float64)

// RankFailure records one rank death.
type RankFailure struct {
	Rank  int     `json:"rank"`
	TimeS float64 `json:"time_s"`
}

// World is a set of ranks executing in lockstep phases.
type World struct {
	Size    int
	Network Network

	clocks   []float64 // virtual time per rank
	alive    []bool
	failures []RankFailure
	jitter   []*rng.Rand
	recorder SpanRecorder
	fhook    RankFaultHook
	stragObs StragglerObserver

	// durs and waits back the slices Execute and Synchronize return.
	durs, waits []float64
}

// NewWorld creates a world of `size` ranks with per-rank deterministic
// jitter streams derived from seed.
func NewWorld(size int, net Network, seed uint64) *World {
	w := &World{Size: size, Network: net}
	w.clocks = make([]float64, size)
	w.durs = make([]float64, size)
	w.waits = make([]float64, size)
	w.alive = make([]bool, size)
	for i := range w.alive {
		w.alive[i] = true
	}
	root := rng.New(seed)
	for i := 0; i < size; i++ {
		w.jitter = append(w.jitter, root.Split())
	}
	return w
}

// Clock returns rank r's virtual time.
func (w *World) Clock(r int) float64 {
	return w.clocks[r]
}

// Advance moves rank r's clock forward by dt seconds. Dead ranks do not
// advance.
func (w *World) Advance(r int, dt float64) {
	if w.alive[r] {
		w.clocks[r] += dt
	}
}

// Alive reports whether rank r is still executing.
func (w *World) Alive(r int) bool {
	return w.alive[r]
}

// AliveCount returns the number of surviving ranks.
func (w *World) AliveCount() int {
	n := 0
	for _, a := range w.alive {
		if a {
			n++
		}
	}
	return n
}

// Fail kills rank r at virtual time atS: it stops executing phases and
// stops participating in barriers; its clock freezes. Killing a dead
// rank is a no-op.
func (w *World) Fail(r int, atS float64) {
	if !w.alive[r] {
		return
	}
	w.alive[r] = false
	w.failures = append(w.failures, RankFailure{Rank: r, TimeS: atS})
}

// Failures returns the rank deaths so far, in order of occurrence.
func (w *World) Failures() []RankFailure {
	out := make([]RankFailure, len(w.failures))
	copy(out, w.failures)
	return out
}

// SetRankFaultHook installs the per-phase fault hook; nil removes it.
func (w *World) SetRankFaultHook(h RankFaultHook) {
	w.fhook = h
}

// SetStragglerObserver installs the straggler observer; nil removes it.
func (w *World) SetStragglerObserver(o StragglerObserver) {
	w.stragObs = o
}

// Jitter returns a deterministic multiplicative load-imbalance factor for
// rank r around 1.0 with the given relative spread (e.g. 0.02 for ±2%).
func (w *World) Jitter(r int, spread float64) float64 {
	return 1 + spread*(2*w.jitter[r].Float64()-1)
}

// Execute runs fn(rank) for every rank, in rank order, on the caller's
// goroutine, and returns each rank's reported duration. Any interleaving of
// the ranks is a legal schedule of a bulk-synchronous phase — a rank touches
// only its own state until the barrier — so the serial one yields the same
// virtual-time results a concurrent one would. Dead ranks are skipped
// (duration 0, fn not called). With a fault hook installed, each rank's
// result passes through it: stragglers stretch the duration (notifying the
// observer), crashes kill the rank at phase end. It does not touch the
// virtual clocks; callers combine the durations with Synchronize. A panic in
// fn unwinds through the caller.
//
// The returned slice belongs to the World and is valid until the next
// Execute; copy it to keep it.
func (w *World) Execute(fn func(rank int) float64) []float64 {
	for r := range w.durs {
		w.durs[r] = w.phase(r, fn)
	}
	return w.durs
}

// phase runs one rank's share of an Execute call, applying injected rank
// faults.
func (w *World) phase(r int, fn func(rank int) float64) float64 {
	if !w.alive[r] {
		return 0
	}
	dur := fn(r)
	if w.fhook == nil {
		return dur
	}
	f := w.fhook(r, w.clocks[r]+dur)
	if f.SlowFactor > 1 {
		extra := dur * (f.SlowFactor - 1)
		dur += extra
		if w.stragObs != nil {
			w.stragObs(r, extra)
		}
	}
	if f.Crash {
		w.Fail(r, w.clocks[r]+dur)
	}
	return dur
}

// Close does nothing — a World holds no goroutines or other resources — and
// exists only for benchmark/model.go, which defers it.
func (w *World) Close() {}

// SetRecorder installs the synchronization span recorder; nil removes it.
func (w *World) SetRecorder(r SpanRecorder) {
	w.recorder = r
}

// Synchronize applies per-rank durations, then aligns all clocks to the
// maximum (a barrier/collective): it returns, per rank, the wait time the
// barrier imposed on it. With a recorder installed, each rank's barrier
// wait is emitted as an "mpi" span starting when the rank finished its own
// work.
//
// The returned slice belongs to the World and is valid until the next
// Synchronize; it is distinct from the one Execute returns.
func (w *World) Synchronize(durs []float64) []float64 {
	maxT := 0.0
	for r, d := range durs {
		// A rank that died this phase still banks its duration (it did
		// the work before dying) but no longer pulls the barrier, and
		// dead ranks are not aligned — their clocks stay frozen.
		w.clocks[r] += d
		if w.alive[r] && w.clocks[r] > maxT {
			maxT = w.clocks[r]
		}
	}
	waits := w.waits
	for r := range w.clocks {
		if !w.alive[r] {
			waits[r] = 0 // the slice is reused: no stale wait for the dead
			continue
		}
		waits[r] = maxT - w.clocks[r]
		w.clocks[r] = maxT
	}
	if w.recorder != nil {
		for r, wt := range waits {
			if wt > 0 {
				// The wait starts when the rank finished its own work.
				w.recorder.RecordSpan(r, "mpi", "barrier-wait", maxT-wt, wt)
			}
		}
	}
	return waits
}

// WorldState is a World's checkpointable state: the virtual clocks,
// liveness, failure history, and the exact position of every per-rank
// jitter stream. A restored world continues the same deterministic
// trajectory the original would have.
type WorldState struct {
	Clocks   []float64
	Alive    []bool
	Failures []RankFailure
	Jitter   [][4]uint64
}

// State captures the world's checkpointable state.
func (w *World) State() WorldState {
	st := WorldState{
		Clocks:   append([]float64(nil), w.clocks...),
		Alive:    append([]bool(nil), w.alive...),
		Failures: append([]RankFailure(nil), w.failures...),
	}
	for _, j := range w.jitter {
		st.Jitter = append(st.Jitter, j.State())
	}
	return st
}

// Restore installs a state captured by State on a world of the same size.
func (w *World) Restore(st WorldState) error {
	if len(st.Clocks) != w.Size || len(st.Alive) != w.Size || len(st.Jitter) != w.Size {
		return fmt.Errorf("mpisim: restore size mismatch: world has %d ranks, state has %d/%d/%d",
			w.Size, len(st.Clocks), len(st.Alive), len(st.Jitter))
	}
	copy(w.clocks, st.Clocks)
	copy(w.alive, st.Alive)
	w.failures = append(w.failures[:0], st.Failures...)
	for i, s := range st.Jitter {
		w.jitter[i].SetState(s)
	}
	return nil
}

// MaxClock returns the furthest-advanced rank clock (the job's wall time).
func (w *World) MaxClock() float64 {
	m := 0.0
	for _, c := range w.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// SameNode reports whether two ranks share a node under block placement.
func (w *World) SameNode(a, b int) bool {
	rpn := w.Network.RanksPerNode
	if rpn <= 0 {
		return false
	}
	return a/rpn == b/rpn
}
