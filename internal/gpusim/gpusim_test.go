package gpusim

import (
	"math"
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
			v := s.voltageAt(f)
			if v < prev {
				t.Fatalf("%s: voltage decreases at %d MHz", s.Name, f)
			}
			prev = v
		}
		if s.voltageAt(0) != s.VoltageCurve[0].Volts {
			t.Errorf("%s: below-curve voltage not clamped", s.Name)
		}
		if s.voltageAt(99999) != s.VoltageCurve[len(s.VoltageCurve)-1].Volts {
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

// TestMemClockTable pins the memory clock table to one entry, as the paper
// holds HBM at its maximum: 0 and MemClockMHz select it and run a
// bandwidth-bound kernel alike; every other clock, the lower entries the
// vendor tables list included, is refused and leaves the SM clock alone.
func TestMemClockTable(t *testing.T) {
	lower := map[string][]int{
		A100SXM480GB().Name: {1365, 810},
		MI250XGCD().Name:    {1300, 800},
	}
	for _, s := range specs() {
		var times []float64
		for _, mem := range []int{0, s.MemClockMHz} {
			d := NewDevice(s, 0)
			if _, err := d.SetApplicationClocks(mem, s.MaxSMClockMHz); err != nil {
				t.Fatalf("%s: memory clock %d MHz refused: %v", s.Name, mem, err)
			}
			times = append(times, d.Execute(memKernel()))
		}
		if times[0] != times[1] {
			t.Errorf("%s: memory-bound kernel %v s at mem 0, %v s at %d MHz", s.Name, times[0], times[1], s.MemClockMHz)
		}
		d := NewDevice(s, 0)
		if _, err := d.SetApplicationClocks(0, s.MaxSMClockMHz); err != nil {
			t.Fatal(err)
		}
		for _, mem := range append([]int{-1, s.MemClockMHz - 1, s.MemClockMHz + 1}, lower[s.Name]...) {
			if _, err := d.SetApplicationClocks(mem, s.MinSMClockMHz); err == nil {
				t.Errorf("%s: memory clock %d MHz accepted; the memory clock is fixed", s.Name, mem)
			}
			if d.SMClockMHz() != s.MaxSMClockMHz {
				t.Errorf("%s: refused set moved the SM clock to %d", s.Name, d.SMClockMHz())
			}
		}
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
		p := d.lastPowerW
		if p < s.IdlePowerW || p > s.TDPW {
			t.Errorf("%s: power %v outside [%v, %v]", s.Name, p, s.IdlePowerW, s.TDPW)
		}
		d.Idle(0.1)
		if got := d.lastPowerW; math.Abs(got-s.IdlePowerW) > 1e-9 {
			t.Errorf("%s: locked idle power %v, want %v", s.Name, got, s.IdlePowerW)
		}
	}
}

func TestPowerDropsWithFrequency(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	k := computeKernel()
	d.SetApplicationClocks(0, 1410)
	d.Execute(k)
	pHigh := d.lastPowerW
	d.SetApplicationClocks(0, 1005)
	d.Execute(k)
	pLow := d.lastPowerW
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
	// Under the governor an idle GCD draws its idle floor plus the
	// governor's stability margin: between the floor and 1.5x it.
	g := NewDevice(MI250XGCD(), 0)
	g.Idle(3)
	if floor := g.Spec().IdlePowerW * 3; g.EnergyJ() < floor || g.EnergyJ() > 1.5*floor {
		t.Errorf("governed idle energy %v J, want in [%v, %v]", g.EnergyJ(), floor, 1.5*floor)
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
	// The additive tc + tm model gives a kernel balanced at the A100's
	// effective flop/byte point (tc ≈ tm) an interior β, not all-or-nothing.
	balanced := KernelDesc{Items: 50e6, FlopsPerItem: 3000, BytesPerItem: 1260, EffFactor: 0.5}
	if b := balanced.FrequencySensitivity(s); b <= 0.2 || b >= 0.8 {
		t.Errorf("balanced kernel beta %v, want interior (0.2, 0.8)", b)
	}
}

func TestEstimateDurationMatchesExecution(t *testing.T) {
	s := A100PCIE40GB()
	k := computeKernel()
	d := NewDevice(s, 0)
	d.SetApplicationClocks(0, 1110)
	got := d.Execute(k)
	kt := k.timing(&s)
	want := kt.durationAt(&s, 1110)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Execute %v != the timing model's %v", got, want)
	}
}

// The device reads its spec through a pointer and keeps V(fmax); the exported
// value path takes specs by value. The two agree to the bit on every
// supported clock: a launch's duration with the timing model's, and its board
// power with the power model written out over the voltage curve.
func TestDevicePathMatchesValueAPI(t *testing.T) {
	kernels := []KernelDesc{
		computeKernel(),
		memKernel(),
		{Name: "multi-launch", Items: 10e6, FlopsPerItem: 150, BytesPerItem: 1500, Launches: 64, EffFactor: 0.45},
		{Name: "under-filled", Items: 2e4, FlopsPerItem: 5000, BytesPerItem: 64, EffFactor: 0.5},
	}
	for _, s := range append(specs(), A100PCIE40GB()) {
		d := NewDevice(s, 0)
		if want := s.voltageAt(s.MaxSMClockMHz); d.vmax != want {
			t.Fatalf("%s: device keeps V(fmax) = %v, the voltage curve gives %v", s.Name, d.vmax, want)
		}
		for _, mhz := range s.SupportedClocksMHz() {
			if _, err := d.SetApplicationClocks(0, mhz); err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				before := d.EnergyJ()
				dur := d.Execute(k)
				kt := k.timing(&s)
				if want := kt.durationAt(&s, mhz); dur != want {
					t.Errorf("%s %s @%d MHz: Execute took %v, the timing model says %v", s.Name, k.Name, mhz, dur, want)
				}
				// The launch drew d.lastPowerW for dur; price it by value.
				fRel := float64(mhz) / float64(s.MaxSMClockMHz)
				vRel := s.voltageAt(mhz) / s.voltageAt(s.MaxSMClockMHz)
				smAct := math.Min(1, kt.smActivity*(1+0.45*(1-fRel)*kt.cFrac))
				want := math.Min(s.TDPW, s.IdlePowerW+s.MaxSMPowerW*vRel*vRel*fRel*smAct+s.MaxMemPowerW*kt.memActivity)
				if got := d.lastPowerW; got != want {
					t.Errorf("%s %s @%d MHz: device priced %v W, value path %v W", s.Name, k.Name, mhz, got, want)
				}
				if got := d.EnergyJ(); got != before+want*dur {
					t.Errorf("%s %s @%d MHz: energy counter %v, want %v", s.Name, k.Name, mhz, got, before+want*dur)
				}
			}
		}
	}
}

func TestVendorString(t *testing.T) {
	if Nvidia.String() != "nvidia" || AMD.String() != "amd" {
		t.Error("vendor strings")
	}
}

// kernelLedger sums what the Observer stream reports per kernel name.
type kernelLedger map[string]*kernelSum

type kernelSum struct {
	launches       int64
	timeS, energyJ float64
}

func (l kernelLedger) KernelLaunched(name string, _, durS float64, _ int, energyJ float64) {
	k := l[name]
	if k == nil {
		k = &kernelSum{}
		l[name] = k
	}
	k.launches++
	k.timeS += durS
	k.energyJ += energyJ
}

func (kernelLedger) ClockChanged(float64, int, string) {}

// TestKernelEnergiesGroundTruth holds the Observer's KernelLaunched stream,
// the per-kernel ground truth attribution joins, to the device's own
// counters: at a locked clock the kernels plus the idle floor over the idle
// windows rebuild the energy counter and the virtual clock, and the stream
// carries every launch.
func TestKernelEnergiesGroundTruth(t *testing.T) {
	d := NewDevice(A100SXM480GB(), 0)
	if _, err := d.SetApplicationClocks(0, 1005); err != nil {
		t.Fatal(err)
	}
	ledger := kernelLedger{}
	d.SetObserver(ledger)
	for i := 0; i < 3; i++ {
		d.Execute(computeKernel())
	}
	d.Idle(0.2)
	d.Execute(memKernel())
	d.Idle(0.3)

	if len(ledger) != 2 || ledger["compute"].launches != 3 || ledger["memory"].launches != 1 {
		t.Fatalf("launch counts = %d kernels, compute %+v, memory %+v", len(ledger), ledger["compute"], ledger["memory"])
	}
	var launches int64
	var sumJ, sumT float64
	for name, k := range ledger {
		if k.energyJ <= 0 || k.timeS <= 0 {
			t.Fatalf("kernel %s: %g J over %g s, want both positive", name, k.energyJ, k.timeS)
		}
		launches += k.launches
		sumJ += k.energyJ
		sumT += k.timeS
	}
	if n := d.KernelsRun(); launches != n {
		t.Errorf("the stream reports %d launches, the device ran %d", launches, n)
	}
	const idleS = 0.5
	if got, want := sumT+idleS, d.Now(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("sum(kernel time)+idle = %.15g s, device clock %.15g s", got, want)
	}
	if got, want := sumJ+idleS*A100SXM480GB().IdlePowerW, d.EnergyJ(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("sum(kernel energy)+idle = %.15g J, device counter %.15g J", got, want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
