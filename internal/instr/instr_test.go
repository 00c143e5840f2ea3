package instr

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *Report {
	r := &Report{Simulation: "turbulence", System: "CSCS-A100", WallTimeS: 100, Strategy: "baseline"}
	for rank := 0; rank < 2; rank++ {
		p := NewRankProfile(rank)
		p.Record("MomentumEnergy", 40, 8000, 500, 100, 200, 0.5)
		p.Record("XMass", 10, 1500, 120, 30, 60, 0.1)
		p.Record("MomentumEnergy", 42, 8100, 510, 110, 210, 0.6)
		r.Ranks = append(r.Ranks, p)
	}
	r.GPUEnergyJ = 2 * (8000 + 1500 + 8100)
	r.CPUEnergyJ = 2 * (500 + 120 + 510)
	r.MemEnergyJ = 2 * (100 + 30 + 110)
	r.OtherEnergyJ = 2 * (200 + 60 + 210)
	r.TotalEnergyJ = r.GPUEnergyJ + r.CPUEnergyJ + r.MemEnergyJ + r.OtherEnergyJ
	return r
}

func TestRecordAccumulates(t *testing.T) {
	p := NewRankProfile(0)
	p.Record("fn", 1, 10, 1, 0.5, 0.2, 0.1)
	p.Record("fn", 2, 20, 2, 1.0, 0.4, 0.2)
	st := p.Get("fn")
	if st.Calls != 2 {
		t.Errorf("calls = %d", st.Calls)
	}
	if st.TimeS != 3 || st.GPUJ != 30 || st.CPUJ != 3 {
		t.Errorf("accumulation wrong: %+v", st)
	}
	if math.Abs(st.TotalJ()-(30+3+1.5+0.6)) > 1e-12 {
		t.Errorf("TotalJ = %v", st.TotalJ())
	}
}

func TestFunctionOrderPreserved(t *testing.T) {
	p := NewRankProfile(0)
	for _, fn := range []string{"c", "a", "b"} {
		p.Record(fn, 1, 0, 0, 0, 0, 0)
	}
	names := p.FunctionNames()
	if names[0] != "c" || names[1] != "a" || names[2] != "b" {
		t.Errorf("order = %v, want recording order", names)
	}
}

func TestRankTotals(t *testing.T) {
	p := NewRankProfile(0)
	p.Record("a", 1, 10, 0, 0, 0, 0)
	p.Record("b", 4, 30, 0, 0, 0, 0)
	if p.TotalTimeS() != 5 {
		t.Errorf("TotalTimeS = %v", p.TotalTimeS())
	}
	if p.TotalGPUJ() != 40 {
		t.Errorf("TotalGPUJ = %v", p.TotalGPUJ())
	}
}

func TestReportFunctionTotal(t *testing.T) {
	r := sampleReport()
	me := r.FunctionTotal("MomentumEnergy")
	if me.Calls != 4 {
		t.Errorf("calls = %d, want 4 (2 per rank)", me.Calls)
	}
	if math.Abs(me.GPUJ-2*(8000+8100)) > 1e-9 {
		t.Errorf("GPUJ = %v", me.GPUJ)
	}
	missing := r.FunctionTotal("nope")
	if missing.Calls != 0 {
		t.Error("missing function should aggregate to zero")
	}
}

func TestReportFunctionNamesUnion(t *testing.T) {
	r := sampleReport()
	r.Ranks[1].Record("Gravity", 1, 5, 0, 0, 0, 0)
	names := r.FunctionNames()
	if names[0] != "MomentumEnergy" || names[1] != "XMass" {
		t.Errorf("order = %v", names)
	}
	found := false
	for _, n := range names {
		if n == "Gravity" {
			found = true
		}
	}
	if !found {
		t.Error("rank-1-only function missing from union")
	}
}

func TestEDP(t *testing.T) {
	r := sampleReport()
	if got := r.EDP(); math.Abs(got-r.TotalEnergyJ*100) > 1e-9 {
		t.Errorf("EDP = %v", got)
	}
}

func TestJSONRoundtrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Simulation != r.Simulation || back.System != r.System {
		t.Error("metadata lost")
	}
	if len(back.Ranks) != 2 {
		t.Fatalf("ranks lost: %d", len(back.Ranks))
	}
	me := back.FunctionTotal("MomentumEnergy")
	if math.Abs(me.GPUJ-2*(8000+8100)) > 1e-9 {
		t.Errorf("roundtrip GPUJ = %v", me.GPUJ)
	}
	if math.Abs(back.TotalEnergyJ-r.TotalEnergyJ) > 1e-9 {
		t.Error("total energy lost")
	}
}

func TestFileRoundtrip(t *testing.T) {
	r := sampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.WallTimeS != 100 {
		t.Errorf("wall time = %v", back.WallTimeS)
	}
}

func TestConcurrentRecording(t *testing.T) {
	p := NewRankProfile(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				p.Record("fn", 1, 1, 0, 0, 0, 0)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := p.Get("fn"); st.Calls != 8000 {
		t.Errorf("concurrent calls = %d, want 8000", st.Calls)
	}
}

func TestSeriesRecording(t *testing.T) {
	p := NewRankProfile(0)
	p.SeriesEnabled = true
	for _, v := range []float64{1, 2, 3, 2} {
		p.Record("fn", v, 0, 0, 0, 0, 0)
	}
	n, mean, relStd, ok := p.SeriesStats("fn")
	if !ok || n != 4 {
		t.Fatalf("series n=%d ok=%v", n, ok)
	}
	if math.Abs(mean-2) > 1e-12 {
		t.Errorf("mean %v", mean)
	}
	if relStd <= 0 || relStd > 1 {
		t.Errorf("relStd %v", relStd)
	}
	// Disabled profiles record no series.
	q := NewRankProfile(1)
	q.Record("fn", 1, 0, 0, 0, 0, 0)
	if _, _, _, ok := q.SeriesStats("fn"); ok {
		t.Error("series recorded while disabled")
	}
}

func TestSeriesSurvivesJSON(t *testing.T) {
	p := NewRankProfile(0)
	p.SeriesEnabled = true
	p.Record("fn", 1.5, 0, 0, 0, 0, 0)
	r := &Report{Ranks: []*RankProfile{p}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Ranks[0].Series["fn"]; len(got) != 1 || got[0] != 1.5 {
		t.Errorf("series lost: %v", got)
	}
}

func TestRoundtripPreservesFunctionOrder(t *testing.T) {
	// Deliberately non-alphabetical recording order: sorting map keys on
	// load would come back as [density, iad, momentumEnergy].
	p := NewRankProfile(0)
	for _, fn := range []string{"momentumEnergy", "density", "iad"} {
		p.Record(fn, 1, 10, 1, 1, 1, 0.1)
	}
	r := &Report{Simulation: "turbulence", Ranks: []*RankProfile{p}}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"function_order"`)) {
		t.Error("serialized report has no function_order field")
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Ranks[0].FunctionNames()
	want := []string{"momentumEnergy", "density", "iad"}
	if len(got) != len(want) {
		t.Fatalf("FunctionNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FunctionNames = %v, want %v (first-recorded order lost)", got, want)
		}
	}

	// A second round trip must be stable.
	buf.Reset()
	if err := back.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Ranks[0].FunctionNames(); got[0] != "momentumEnergy" || got[2] != "iad" {
		t.Errorf("second round trip reordered: %v", got)
	}
}

func TestReadReportWithoutOrderFallsBackSorted(t *testing.T) {
	// Reports from before function_order existed (or hand-edited ones)
	// carry only the map; names come back sorted, and stale order entries
	// are dropped.
	raw := `{"ranks":[{"rank":0,
		"function_order":["iad","ghost"],
		"functions":{
			"iad":{"name":"iad","calls":1,"time_s":1},
			"density":{"name":"density","calls":1,"time_s":2},
			"momentumEnergy":{"name":"momentumEnergy","calls":1,"time_s":3}}}]}`
	back, err := ReadReport(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Ranks[0].FunctionNames()
	want := []string{"iad", "density", "momentumEnergy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FunctionNames = %v, want %v (listed first, unlisted sorted, stale dropped)", got, want)
		}
	}
}

// RecordAt's slot is a hint: whatever slots the caller passes — fresh, reused
// for another name, pointing into a map a restore has since replaced — the
// profile it leaves is the one Record leaves, recording order included.
func TestRecordAtMatchesRecord(t *testing.T) {
	type call struct {
		slot int
		fn   string
	}
	calls := []call{{0, "a"}, {1, "b"}, {0, "a"}, {3, "d"}, {1, "b"}, {1, "c"}, {1, "b"}, {2, "a"}, {0, "d"}}
	byName, bySlot := NewRankProfile(3), NewRankProfile(3)
	byName.SeriesEnabled, bySlot.SeriesEnabled = true, true
	for i, c := range calls {
		if i == 5 {
			// A checkpoint restore lands mid-run: in-place unmarshal.
			wire, err := json.Marshal(bySlot)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(wire, bySlot); err != nil {
				t.Fatal(err)
			}
			bySlot.SeriesEnabled = true
		}
		v := float64(i + 1)
		byName.Record(c.fn, v, 2*v, 3*v, 4*v, 5*v, 6*v)
		bySlot.RecordAt(c.slot, c.fn, v, 2*v, 3*v, 4*v, 5*v, 6*v)
	}
	want, err := json.Marshal(byName)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(bySlot)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("RecordAt left\n%s\nRecord left\n%s", got, want)
	}
}
