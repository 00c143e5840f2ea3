package gpusim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func specs() []Spec {
	return []Spec{A100SXM480GB(), A100PCIE40GB(), MI250XGCD()}
}

// computeKernel is strongly frequency-sensitive; memKernel is not.
func computeKernel() KernelDesc {
	return KernelDesc{Name: "compute", Items: 50e6, FlopsPerItem: 40000, BytesPerItem: 100, EffFactor: 0.5}
}

func memKernel() KernelDesc {
	return KernelDesc{Name: "memory", Items: 50e6, FlopsPerItem: 10, BytesPerItem: 4000, EffFactor: 0.5}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := A100SXM480GB()
	bad.MinSMClockMHz = bad.MaxSMClockMHz
	if bad.Validate() == nil {
		t.Error("min >= max accepted")
	}
	bad = A100SXM480GB()
	bad.VoltageCurve = bad.VoltageCurve[:1]
	if bad.Validate() == nil {
		t.Error("single-point voltage curve accepted")
	}
}

func TestSupportedClocks(t *testing.T) {
	s := A100SXM480GB()
	clocks := s.SupportedClocksMHz()
	if clocks[0] != 1410 {
		t.Errorf("first clock %d, want 1410 (descending order)", clocks[0])
	}
	if clocks[len(clocks)-1] != 210 {
		t.Errorf("last clock %d, want 210", clocks[len(clocks)-1])
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i-1]-clocks[i] != s.SMClockStepMHz {
			t.Fatalf("non-uniform clock step at %d", i)
		}
	}
}

func TestNearestSupportedClock(t *testing.T) {
	s := A100SXM480GB()
	cases := map[int]int{1410: 1410, 1409: 1410, 1000: 1005, 100: 210, 5000: 1410, 1012: 1005}
	for in, want := range cases {
		if got := s.NearestSupportedClock(in); got != want {
			t.Errorf("NearestSupportedClock(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestNearestSupportedClockMatchesTableScan holds the arithmetic snap to the
// scan of the table it replaced — first (higher) entry on a tie — on every
// shipped spec and on one whose range is no multiple of its step and one with
// an even step, where a request can sit exactly between two entries.
func TestNearestSupportedClockMatchesTableScan(t *testing.T) {
	ragged, even := A100SXM480GB(), A100SXM480GB()
	ragged.MinSMClockMHz = 217
	even.SMClockStepMHz = 50
	for _, s := range append(specs(), ragged, even) {
		table := s.SupportedClocksMHz()
		for i, f := range table {
			if got, ok := s.SupportedClockAt(i); !ok || got != f {
				t.Fatalf("%s step %d: SupportedClockAt(%d) = %d, %v, want %d", s.Name, s.SMClockStepMHz, i, got, ok, f)
			}
		}
		for _, i := range []int{-1, len(table)} {
			if _, ok := s.SupportedClockAt(i); ok {
				t.Errorf("%s: SupportedClockAt(%d) ok outside a table of %d", s.Name, i, len(table))
			}
		}
		for mhz := s.MinSMClockMHz - s.SMClockStepMHz; mhz <= s.MaxSMClockMHz+s.SMClockStepMHz; mhz++ {
			want, wantD := table[0], abs(mhz-table[0])
			for _, c := range table[1:] {
				if d := abs(mhz - c); d < wantD {
					want, wantD = c, d
				}
			}
			if got := s.NearestSupportedClock(mhz); got != want {
				t.Fatalf("%s step %d: NearestSupportedClock(%d) = %d, table scan gives %d", s.Name, s.SMClockStepMHz, mhz, got, want)
			}
		}
	}
}

func TestVoltageMonotonic(t *testing.T) {
	for _, s := range specs() {
		prev := 0.0
		for f := s.MinSMClockMHz; f <= s.MaxSMClockMHz; f += s.SMClockStepMHz {
			v := s.VoltageAt(f)
			if v < prev {
				t.Fatalf("%s: voltage decreases at %d MHz", s.Name, f)
			}
			prev = v
		}
		if s.VoltageAt(0) != s.VoltageCurve[0].Volts {
			t.Errorf("%s: below-curve voltage not clamped", s.Name)
		}
		if s.VoltageAt(99999) != s.VoltageCurve[len(s.VoltageCurve)-1].Volts {
			t.Errorf("%s: above-curve voltage not clamped", s.Name)
		}
	}
}

func TestEnergyCounterMonotonic(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	prev := d.EnergyJ()
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			d.Idle(0.01)
		} else {
			d.Execute(memKernel())
		}
		if e := d.EnergyJ(); e < prev {
			t.Fatalf("energy counter decreased: %v -> %v", prev, e)
		} else {
			prev = e
		}
	}
}

func TestLockedClockHonored(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	applied, err := d.SetApplicationClocks(0, 1005)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1005 {
		t.Errorf("applied %d, want 1005", applied)
	}
	if d.SMClockMHz() != 1005 {
		t.Errorf("SMClockMHz = %d", d.SMClockMHz())
	}
	if d.Mode() != ModeLocked {
		t.Error("mode not locked")
	}
	d.ResetApplicationClocks()
	if d.Mode() != ModeAuto {
		t.Error("reset did not restore auto mode")
	}
}

func TestSetApplicationClocksSnapsAndRejectsBadMem(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	applied, err := d.SetApplicationClocks(0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1005 {
		t.Errorf("snap: %d, want 1005", applied)
	}
	if _, err := d.SetApplicationClocks(300, 1005); err == nil {
		t.Error("far-off memory clock accepted")
	}
	if _, err := d.SetApplicationClocks(d.Spec().MemClockMHz, 1005); err != nil {
		t.Errorf("matching memory clock rejected: %v", err)
	}
}

func TestMemoryClockScaling(t *testing.T) {
	// Selecting a lower memory clock stretches bandwidth-bound kernels and
	// lowers memory power; compute-bound kernels barely notice. The paper
	// keeps the memory clock at maximum; this is the control it holds fixed.
	k := memKernel()
	run := func(memMHz int) (timeS, powerW float64) {
		d := NewDevice(A100SXM480GB(), 0)
		if _, err := d.SetApplicationClocks(memMHz, 1410); err != nil {
			t.Fatal(err)
		}
		dt := d.Execute(k)
		return dt, d.PowerW()
	}
	tFull, _ := run(1593)
	tLow, _ := run(810)
	ratio := tLow / tFull
	if ratio < 1.6 || ratio > 2.2 {
		t.Errorf("memory-bound kernel at 810/1593 MHz mem clock slowed %vx, want ~1.97x", ratio)
	}
	// Compute kernel: nearly unaffected in time.
	ck := computeKernel()
	dFull := NewDevice(A100SXM480GB(), 0)
	dFull.SetApplicationClocks(1593, 1410)
	cFull := dFull.Execute(ck)
	dLow := NewDevice(A100SXM480GB(), 0)
	dLow.SetApplicationClocks(810, 1410)
	cLow := dLow.Execute(ck)
	if cLow/cFull > 1.05 {
		t.Errorf("compute kernel slowed %vx under memory down-clock", cLow/cFull)
	}
}

func TestMemClockTable(t *testing.T) {
	s := A100SXM480GB()
	clocks := s.MemClocksMHz()
	if clocks[0] != 1593 {
		t.Errorf("default mem clock %d", clocks[0])
	}
	if s.NearestMemClock(0) != 1593 {
		t.Error("0 should select the default memory clock")
	}
	if s.NearestMemClock(1400) != 1365 {
		t.Errorf("NearestMemClock(1400) = %d", s.NearestMemClock(1400))
	}
	// Specs without a table expose only the default.
	noTable := s
	noTable.SupportedMemClocksMHz = nil
	if got := noTable.MemClocksMHz(); len(got) != 1 || got[0] != 1593 {
		t.Errorf("tableless mem clocks: %v", got)
	}
}

func TestComputeKernelScalesWithFrequency(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	k := computeKernel()
	d.SetApplicationClocks(0, 1410)
	tHigh := d.Execute(k)
	d.SetApplicationClocks(0, 705)
	tLow := d.Execute(k)
	ratio := tLow / tHigh
	if ratio < 1.7 || ratio > 2.1 {
		t.Errorf("compute kernel 705/1410 time ratio %v, want ~2", ratio)
	}
}

func TestMemoryKernelFrequencyInsensitive(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	k := memKernel()
	d.SetApplicationClocks(0, 1410)
	tHigh := d.Execute(k)
	d.SetApplicationClocks(0, 705)
	tLow := d.Execute(k)
	if tLow/tHigh > 1.1 {
		t.Errorf("memory kernel slowed %vx at half clock, want < 1.1x", tLow/tHigh)
	}
}

func TestPowerWithinBounds(t *testing.T) {
	for _, s := range specs() {
		d := NewDevice(s, 0)
		d.SetApplicationClocks(0, s.MaxSMClockMHz)
		d.Execute(computeKernel())
		p := d.PowerW()
		if p < s.IdlePowerW || p > s.TDPW {
			t.Errorf("%s: power %v outside [%v, %v]", s.Name, p, s.IdlePowerW, s.TDPW)
		}
		d.Idle(0.1)
		if got := d.PowerW(); math.Abs(got-s.IdlePowerW) > 1e-9 {
			t.Errorf("%s: locked idle power %v, want %v", s.Name, got, s.IdlePowerW)
		}
	}
}

func TestPowerDropsWithFrequency(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	k := computeKernel()
	d.SetApplicationClocks(0, 1410)
	d.Execute(k)
	pHigh := d.PowerW()
	d.SetApplicationClocks(0, 1005)
	d.Execute(k)
	pLow := d.PowerW()
	if pLow >= pHigh {
		t.Errorf("power did not drop with clock: %v -> %v", pHigh, pLow)
	}
}

func TestEnergyTradeoffShape(t *testing.T) {
	// The core DVFS physics: for a compute-bound kernel, down-scaling saves
	// energy (E = P t with P dropping faster than t grows), yet EDP rises
	// or stays flat — the paper's Fig. 8 behaviour.
	k := computeKernel()
	run := func(mhz int) (timeS, energyJ float64) {
		d := NewDevice(A100SXM480GB(), 0)
		d.SetApplicationClocks(0, mhz)
		e0 := d.EnergyJ()
		dt := d.Execute(k)
		return dt, d.EnergyJ() - e0
	}
	tHigh, eHigh := run(1410)
	tLow, eLow := run(1005)
	if eLow >= eHigh {
		t.Errorf("down-scaling did not save energy: %v -> %v", eHigh, eLow)
	}
	if eLow*tLow < eHigh*tHigh*0.95 {
		t.Errorf("compute-bound EDP improved too much at 1005: %v vs %v",
			eLow*tLow, eHigh*tHigh)
	}
}

func TestIdleAccountsTimeAndEnergy(t *testing.T) {
	d := NewDevice(A100PCIE40GB(), 0)
	d.SetApplicationClocks(0, 1410)
	d.Idle(2.5)
	if math.Abs(d.Now()-2.5) > 1e-12 {
		t.Errorf("Now = %v, want 2.5", d.Now())
	}
	want := d.Spec().IdlePowerW * 2.5
	if math.Abs(d.EnergyJ()-want) > 1e-9 {
		t.Errorf("idle energy %v, want %v", d.EnergyJ(), want)
	}
	d.Idle(-1) // no-op
	if d.Now() != 2.5 {
		t.Error("negative idle advanced time")
	}
}

func TestUtilizationTracksActivity(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	for i := 0; i < 10; i++ {
		d.Execute(computeKernel())
	}
	busy := d.Utilization()
	if busy < 0.9 {
		t.Errorf("utilization after sustained kernels %v, want > 0.9", busy)
	}
	d.Idle(5)
	if d.Utilization() > 0.1 {
		t.Errorf("utilization after long idle %v, want < 0.1", d.Utilization())
	}
}

func TestKernelsRunCountsLaunches(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	d.Execute(KernelDesc{Name: "multi", Items: 1e6, FlopsPerItem: 10, BytesPerItem: 10, Launches: 64})
	d.Execute(KernelDesc{Name: "single", Items: 1e6, FlopsPerItem: 10, BytesPerItem: 10})
	if got := d.KernelsRun(); got != 65 {
		t.Errorf("KernelsRun = %d, want 65", got)
	}
}

func TestTraceRecordsKernels(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	tr := d.EnableTrace()
	d.SetApplicationClocks(0, 1410)
	d.Execute(computeKernel())
	d.Idle(0.05)
	if tr.Len() == 0 {
		t.Fatal("trace empty")
	}
	if m, ok := tr.ClockOfKernel("compute"); !ok || m != 1410 {
		t.Errorf("traced kernel clock %v ok=%v", m, ok)
	}
	lo, hi := tr.MinMaxClock()
	if lo > hi {
		t.Error("MinMaxClock inverted")
	}
}

func TestFrequencySensitivityBounds(t *testing.T) {
	s := A100SXM480GB()
	f := func(flopsRaw, bytesRaw float64) bool {
		k := KernelDesc{
			Items:        10e6,
			FlopsPerItem: math.Abs(flopsRaw),
			BytesPerItem: math.Abs(bytesRaw) + 1,
			EffFactor:    0.5,
		}
		if math.IsInf(k.FlopsPerItem, 0) || math.IsNaN(k.FlopsPerItem) ||
			k.FlopsPerItem > 1e15 || k.BytesPerItem > 1e15 {
			// Physically meaningless workloads (overflow territory).
			return true
		}
		b := k.FrequencySensitivity(s)
		return b >= 0 && b <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Ordering: more flops per byte => more sensitive.
	low := KernelDesc{Items: 10e6, FlopsPerItem: 10, BytesPerItem: 1000, EffFactor: 0.5}
	high := KernelDesc{Items: 10e6, FlopsPerItem: 10000, BytesPerItem: 10, EffFactor: 0.5}
	if low.FrequencySensitivity(s) >= high.FrequencySensitivity(s) {
		t.Error("beta ordering violated")
	}
}

func TestEstimateDurationMatchesExecution(t *testing.T) {
	s := A100PCIE40GB()
	k := computeKernel()
	d := NewDevice(s, 0)
	d.SetApplicationClocks(0, 1110)
	got := d.Execute(k)
	want := k.EstimateDuration(s, 1110)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Execute %v != EstimateDuration %v", got, want)
	}
}

// The device reads its spec through a pointer and keeps V(fmax); the exported
// API takes specs by value. The two paths agree to the bit on every supported
// clock: a launch's duration with EstimateDuration, and its board power with
// the power model written out over Spec.VoltageAt.
func TestDevicePathMatchesValueAPI(t *testing.T) {
	kernels := []KernelDesc{
		computeKernel(),
		memKernel(),
		{Name: "multi-launch", Items: 10e6, FlopsPerItem: 150, BytesPerItem: 1500, Launches: 64, EffFactor: 0.45},
		{Name: "under-filled", Items: 2e4, FlopsPerItem: 5000, BytesPerItem: 64, EffFactor: 0.5},
	}
	for _, s := range append(specs(), A100PCIE40GB()) {
		d := NewDevice(s, 0)
		if want := s.VoltageAt(s.MaxSMClockMHz); d.vmax != want {
			t.Fatalf("%s: device keeps V(fmax) = %v, Spec.VoltageAt gives %v", s.Name, d.vmax, want)
		}
		for _, mhz := range s.SupportedClocksMHz() {
			if _, err := d.SetApplicationClocks(0, mhz); err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				before := d.EnergyJ()
				dur := d.Execute(k)
				if want := k.EstimateDuration(s, mhz); dur != want {
					t.Errorf("%s %s @%d MHz: Execute took %v, EstimateDuration says %v", s.Name, k.Name, mhz, dur, want)
				}
				// The launch drew d.PowerW() for dur; price it by value.
				kt := k.timing(&s)
				fRel := float64(mhz) / float64(s.MaxSMClockMHz)
				vRel := s.VoltageAt(mhz) / s.VoltageAt(s.MaxSMClockMHz)
				smAct := math.Min(1, kt.smActivity*(1+0.45*(1-fRel)*kt.cFrac))
				want := math.Min(s.TDPW, s.IdlePowerW+s.MaxSMPowerW*vRel*vRel*fRel*smAct+s.MaxMemPowerW*kt.memActivity)
				if got := d.PowerW(); got != want {
					t.Errorf("%s %s @%d MHz: device priced %v W, value path %v W", s.Name, k.Name, mhz, got, want)
				}
				if got := d.EnergyJ(); got != before+want*dur {
					t.Errorf("%s %s @%d MHz: energy counter %v, want %v", s.Name, k.Name, mhz, got, before+want*dur)
				}
			}
		}
	}
}

func TestArithmeticIntensity(t *testing.T) {
	k := KernelDesc{FlopsPerItem: 100, BytesPerItem: 25}
	if k.ArithmeticIntensity() != 4 {
		t.Errorf("intensity = %v", k.ArithmeticIntensity())
	}
	inf := KernelDesc{FlopsPerItem: 100}
	if !math.IsInf(inf.ArithmeticIntensity(), 1) {
		t.Error("zero-byte kernel intensity not +Inf")
	}
}

func TestVendorString(t *testing.T) {
	if Nvidia.String() != "nvidia" || AMD.String() != "amd" {
		t.Error("vendor strings")
	}
}

func TestTraceWindowAndCSV(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	tr := d.EnableTrace()
	d.SetApplicationClocks(0, 1410)
	d.Execute(computeKernel())
	mid := d.Now()
	d.Idle(0.1)
	d.Execute(memKernel())

	all := tr.Points()
	win := tr.Window(0, mid)
	if len(win) == 0 || len(win) >= len(all) {
		t.Errorf("window has %d of %d points", len(win), len(all))
	}
	for _, p := range win {
		if p.TimeS >= mid {
			t.Fatal("window leaked later samples")
		}
	}

	var buf strings.Builder
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,clock_mhz,power_w,kernel") {
		t.Errorf("csv header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "compute") || !strings.Contains(out, "memory") {
		t.Error("csv missing kernel labels")
	}
	if rows := strings.Count(out, "\n"); rows != len(all)+1 {
		t.Errorf("csv has %d rows, want %d", rows, len(all)+1)
	}
}

func TestConcurrentManagementPlane(t *testing.T) {
	// The rank goroutine executes kernels while the management plane (NVML
	// queries, pm_counters sampling) polls concurrently — the deployment
	// pattern of the paper's out-of-band monitoring. Run with -race.
	d := NewDevice(A100SXM480GB(), 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.Execute(memKernel())
			d.Idle(0.001)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			_ = d.EnergyJ()
			_ = d.PowerW()
			_ = d.SMClockMHz()
			_ = d.Utilization()
			_ = d.ThrottleReasons()
		}
	}
}

func TestPureRooflineOverlapAblation(t *testing.T) {
	// Under the ideal-overlap model a balanced kernel is faster and becomes
	// all-or-nothing in frequency sensitivity.
	// Balanced at the A100's effective flop/byte point: tc ~= tm.
	balanced := KernelDesc{Items: 50e6, FlopsPerItem: 3000, BytesPerItem: 1260, EffFactor: 0.5}
	add := A100SXM480GB()
	roof := A100SXM480GB()
	roof.PureRooflineOverlap = true
	tAdd := balanced.EstimateDuration(add, 1410)
	tRoof := balanced.EstimateDuration(roof, 1410)
	if tRoof >= tAdd {
		t.Errorf("roofline %v not faster than additive %v", tRoof, tAdd)
	}
	bAdd := balanced.FrequencySensitivity(add)
	bRoof := balanced.FrequencySensitivity(roof)
	if bAdd <= 0.2 || bAdd >= 0.8 {
		t.Errorf("additive beta %v, want interior", bAdd)
	}
	if bRoof > 0.05 && bRoof < 0.95 {
		t.Errorf("roofline beta %v, want all-or-nothing", bRoof)
	}
}

func TestKernelEnergiesGroundTruth(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	if _, err := d.SetApplicationClocks(0, 1005); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Execute(computeKernel())
	}
	d.Execute(memKernel())
	d.Idle(0.5)

	ks := d.KernelEnergies()
	if len(ks) != 2 {
		t.Fatalf("kernels = %d, want 2", len(ks))
	}
	byName := map[string]KernelEnergy{}
	var sumJ, sumT float64
	for _, k := range ks {
		byName[k.Name] = k
		sumJ += k.EnergyJ
		sumT += k.TimeS
	}
	if byName["compute"].Launches != 3 || byName["memory"].Launches != 1 {
		t.Fatalf("launch counts = %+v", byName)
	}
	if byName["compute"].EnergyJ <= 0 || byName["memory"].EnergyJ <= 0 {
		t.Fatal("kernel energies must be positive")
	}
	// Per-kernel accounting + idle must reconstruct the device counter.
	idleJ := 0.5 * A100SXM480GB().IdlePowerW
	total := d.EnergyJ()
	if diff := total - sumJ - idleJ; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum(kernels)+idle = %v, device counter = %v", sumJ+idleJ, total)
	}
	if bt := d.BusySeconds(); bt-sumT > 1e-12 || sumT-bt > 1e-12 {
		t.Fatalf("sum kernel time %v != busy seconds %v", sumT, bt)
	}
	// Sorted by descending energy.
	for i := 1; i < len(ks); i++ {
		if ks[i].EnergyJ > ks[i-1].EnergyJ {
			t.Fatal("KernelEnergies not sorted by energy")
		}
	}
}
