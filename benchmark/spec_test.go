package main

import (
	"strings"
	"testing"
)

func TestBenchmarkJSONLoadsAndIsWithinTheContract(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.workloadNames(), " "); got != "turb30 evrard30 model_paper model_observed" {
		t.Errorf("workloads = %s", got)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", s.Paths, s.RunSeconds)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup, ok := s.endToEnd("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s = %+v", setup)
	}
	for _, m := range s.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, w := range s.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestSpecValidationRejectsBadNamesUnitsAndBounds(t *testing.T) {
	good := func() *benchSpec {
		return &benchSpec{
			Workloads: []workloadSpec{{Name: "w1"}},
			EndToEnd:  []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2}},
			PerLayer:  []metricSpec{{Name: "sph.x-y_ms", Unit: "1/s", Better: "higher"}},
		}
	}
	if err := good().validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"space in name":      func(s *benchSpec) { s.PerLayer[0].Name = "a b" },
		"slash in name":      func(s *benchSpec) { s.PerLayer[0].Name = "a/b" },
		"leading dot":        func(s *benchSpec) { s.PerLayer[0].Name = ".a" },
		"empty name":         func(s *benchSpec) { s.Workloads[0].Name = "" },
		"65 characters":      func(s *benchSpec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"name used twice":    func(s *benchSpec) { s.PerLayer[0].Name = "setup_s" },
		"workload = metric":  func(s *benchSpec) { s.Workloads[0].Name = "setup_s" },
		"unit with space":    func(s *benchSpec) { s.EndToEnd[0].Unit = "m s" },
		"unit too long":      func(s *benchSpec) { s.EndToEnd[0].Unit = strings.Repeat("s", 17) },
		"direction":          func(s *benchSpec) { s.EndToEnd[0].Better = "faster" },
		"bound above 0.25":   func(s *benchSpec) { s.EndToEnd[0].Bound = 0.3 },
		"end-to-end unbound": func(s *benchSpec) { s.EndToEnd[0].Bound = 0 },
	} {
		s := good()
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
