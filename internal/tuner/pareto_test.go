package tuner

import (
	"testing"
	"testing/quick"

	"sphenergy/internal/rng"
)

func TestParetoFrontFiltersDominated(t *testing.T) {
	ms := []Measurement{
		{MHz: 1410, TimeS: 1.0, EnergyJ: 100},
		{MHz: 1200, TimeS: 1.1, EnergyJ: 90},
		{MHz: 1100, TimeS: 1.2, EnergyJ: 95}, // dominated by 1200
		{MHz: 1005, TimeS: 1.3, EnergyJ: 80},
		{MHz: 900, TimeS: 1.5, EnergyJ: 85}, // dominated by 1005
	}
	front := ParetoFront(ms)
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3: %+v", len(front), front)
	}
	for i, want := range []int{1410, 1200, 1005} {
		if front[i].MHz != want {
			t.Errorf("front[%d] = %d MHz, want %d", i, front[i].MHz, want)
		}
	}
}

func TestParetoFrontProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + int(r.Uint64()%40)
		ms := make([]Measurement, n)
		for i := range ms {
			ms[i] = Measurement{MHz: 1000 + i, TimeS: 1 + r.Float64(), EnergyJ: 50 + 100*r.Float64()}
		}
		front := ParetoFront(ms)
		if len(front) == 0 || len(front) > n {
			return false
		}
		// No front member dominates another; every non-front member is
		// dominated by some front member.
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
		}
		inFront := func(m Measurement) bool {
			for _, fm := range front {
				if fm == m {
					return true
				}
			}
			return false
		}
		for _, m := range ms {
			if inFront(m) {
				continue
			}
			dominated := false
			for _, fm := range front {
				if Dominates(fm, m) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParetoOnRealSweep(t *testing.T) {
	// The front of a real frequency sweep is non-trivial and includes both
	// extremes' neighborhoods.
	res, err := TuneKernel("k", computeBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(res.All)
	if len(front) < 2 {
		t.Fatalf("front too small: %d", len(front))
	}
	// The fastest configuration (max clock) is always on the front.
	if front[0].MHz != 1410 {
		t.Errorf("fastest front member %d, want 1410", front[0].MHz)
	}
}

// Dominates reports whether a dominates b in the (time, energy) plane.
func Dominates(a, b Measurement) bool {
	return a.TimeS <= b.TimeS && a.EnergyJ <= b.EnergyJ &&
		(a.TimeS < b.TimeS || a.EnergyJ < b.EnergyJ)
}
