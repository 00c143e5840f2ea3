package instr

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sampleReport() *Report {
	r := &Report{Simulation: "turbulence", System: "CSCS-A100", WallTimeS: 100, Strategy: "baseline"}
	for rank := 0; rank < 2; rank++ {
		p := NewRankProfile(rank)
		p.RecordAt(0, "MomentumEnergy", 40, 8000, 500, 100, 200, 0.5)
		p.RecordAt(1, "XMass", 10, 1500, 120, 30, 60, 0.1)
		p.RecordAt(0, "MomentumEnergy", 42, 8100, 510, 110, 210, 0.6)
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
	p.RecordAt(0, "fn", 1, 10, 1, 0.5, 0.2, 0.1)
	p.RecordAt(0, "fn", 2, 20, 2, 1.0, 0.4, 0.2)
	st := p.Get("fn")
	if st.Calls != 2 {
		t.Errorf("calls = %d", st.Calls)
	}
	if st.TimeS != 3 || st.GPUJ != 30 || st.CPUJ != 3 {
		t.Errorf("accumulation wrong: %+v", st)
	}
	if total := st.GPUJ + st.CPUJ + st.MemJ + st.OtherJ; math.Abs(total-(30+3+1.5+0.6)) > 1e-12 {
		t.Errorf("total energy = %v", total)
	}
}

func TestFunctionOrderPreserved(t *testing.T) {
	p := NewRankProfile(0)
	for _, fn := range []string{"c", "a", "b"} {
		p.RecordAt(0, fn, 1, 0, 0, 0, 0, 0)
	}
	names := p.FunctionNames()
	if names[0] != "c" || names[1] != "a" || names[2] != "b" {
		t.Errorf("order = %v, want recording order", names)
	}
}

func TestRankTotals(t *testing.T) {
	p := NewRankProfile(0)
	p.RecordAt(0, "a", 1, 10, 0, 0, 0, 0)
	p.RecordAt(0, "b", 4, 30, 0, 0, 0, 0)
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

// The report's function names are the longest rank's: a rank that died
// early recorded a prefix of the pipeline the others ran.
func TestReportFunctionNamesUnion(t *testing.T) {
	r := sampleReport()
	r.Ranks[1].RecordAt(2, "Gravity", 1, 5, 0, 0, 0, 0)
	dead := NewRankProfile(2)
	dead.RecordAt(0, "MomentumEnergy", 1, 1, 0, 0, 0, 0)
	r.Ranks = append([]*RankProfile{dead}, r.Ranks...)
	if got, want := r.FunctionNames(), []string{"MomentumEnergy", "XMass", "Gravity"}; !slices.Equal(got, want) {
		t.Errorf("FunctionNames = %v, want %v (rank 1's)", got, want)
	}
	if names := (&Report{}).FunctionNames(); names != nil {
		t.Errorf("a report without ranks names %v", names)
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

func TestRoundtripPreservesFunctionOrder(t *testing.T) {
	// Deliberately non-alphabetical recording order: the list keeps it, on
	// the wire and read back.
	p := NewRankProfile(0)
	want := []string{"momentumEnergy", "density", "iad"}
	for _, fn := range want {
		p.RecordAt(0, fn, 1, 10, 1, 1, 1, 0.1)
	}
	r := &Report{Simulation: "turbulence", Ranks: []*RankProfile{p}}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Ranks []struct {
			Functions []struct{ Name string } `json:"functions"`
		} `json:"ranks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	var onWire []string
	for _, f := range wire.Ranks[0].Functions {
		onWire = append(onWire, f.Name)
	}
	if !slices.Equal(onWire, want) {
		t.Errorf("functions on the wire %v, want %v", onWire, want)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Ranks[0].FunctionNames(); !slices.Equal(got, want) {
		t.Fatalf("FunctionNames = %v, want %v (first-recorded order lost)", got, want)
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
	if got := again.Ranks[0].FunctionNames(); !slices.Equal(got, want) {
		t.Errorf("second round trip reordered: %v", got)
	}
}

// A report from before a rank's functions were a list — a function_order
// list beside a map keyed by name — is refused, not read as an empty or
// reordered profile.
func TestReadReportRefusesFunctionMap(t *testing.T) {
	raw := `{"ranks":[{"rank":0,
		"function_order":["iad"],
		"functions":{"iad":{"name":"iad","calls":1,"time_s":1}}}]}`
	if r, err := ReadReport(strings.NewReader(raw)); err == nil {
		t.Fatalf("a map-shaped report read as %+v", r.Ranks[0])
	} else if !strings.Contains(err.Error(), "decode report") {
		t.Errorf("err = %v, want a decode error", err)
	}
}

// RecordAt's slot is a hint: whatever slots the caller passes — fresh, reused
// for another name, pointing past the list or into one a read has since
// replaced — the profile it leaves is the one a lookup by name on every call
// leaves (a slot never used before), recording order included.
func TestRecordAtMatchesRecord(t *testing.T) {
	type call struct {
		slot int
		fn   string
	}
	calls := []call{{0, "a"}, {1, "b"}, {0, "a"}, {3, "d"}, {1, "b"}, {1, "c"}, {1, "b"}, {2, "a"}, {0, "d"}}
	byName, bySlot := NewRankProfile(3), NewRankProfile(3)
	for i, c := range calls {
		if i == 5 {
			// The profile is read back in place mid-run.
			wire, err := json.Marshal(bySlot)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(wire, bySlot); err != nil {
				t.Fatal(err)
			}
		}
		v := float64(i + 1)
		byName.RecordAt(len(calls)+i, c.fn, v, 2*v, 3*v, 4*v, 5*v, 6*v)
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
