package tuner

import "sort"

// Pareto analysis over tuning measurements: §IV-D frames dynamic frequency
// selection as identifying Pareto-optimal (time, energy) configurations.
// ParetoFront filters the measurements to the non-dominated set.

// ParetoFront returns the measurements not dominated in (TimeS, EnergyJ):
// a configuration is dominated if another is at least as good on both axes
// and strictly better on one. The result is sorted by increasing time.
func ParetoFront(ms []Measurement) []Measurement {
	if len(ms) == 0 {
		return nil
	}
	sorted := append([]Measurement(nil), ms...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].TimeS != sorted[b].TimeS {
			return sorted[a].TimeS < sorted[b].TimeS
		}
		return sorted[a].EnergyJ < sorted[b].EnergyJ
	})
	var front []Measurement
	bestE := 0.0
	for _, m := range sorted {
		if len(front) == 0 || m.EnergyJ < bestE {
			front = append(front, m)
			bestE = m.EnergyJ
		}
	}
	return front
}
