package mpisim

import "testing"

type spanLog struct {
	ranks  []int
	starts []float64
	durs   []float64
}

func (s *spanLog) BarrierWait(rank int, startS, durS float64) {
	s.ranks = append(s.ranks, rank)
	s.starts = append(s.starts, startS)
	s.durs = append(s.durs, durS)
}

func TestSynchronizeEmitsBarrierWaitSpans(t *testing.T) {
	w := NewWorld(3, DefaultNetwork(3), 1)
	log := &spanLog{}
	w.SetRecorder(log)

	waits := w.Synchronize([]float64{1.0, 3.0, 2.0})
	// The slowest rank (1) waits zero and emits no span; ranks 0 and 2 do.
	if len(log.ranks) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(log.ranks), log)
	}
	for i, r := range log.ranks {
		if log.durs[i] != waits[r] {
			t.Errorf("rank %d span dur %v, want wait %v", r, log.durs[i], waits[r])
		}
		// The wait starts when the rank finished its own work.
		if want := map[int]float64{0: 1.0, 2: 2.0}[r]; log.starts[i] != want {
			t.Errorf("rank %d span start %v, want %v", r, log.starts[i], want)
		}
	}

	w.SetRecorder(nil)
	w.Synchronize([]float64{1, 2, 3})
	if len(log.ranks) != 2 {
		t.Error("removed recorder still called")
	}
}
