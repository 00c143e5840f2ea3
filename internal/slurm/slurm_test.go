package slurm

import (
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/sampler"
)

func smallJobConfig() core.Config {
	return core.Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              core.Turbulence,
		ParticlesPerRank: 8e6,
		Steps:            5,
	}
}

func TestParseTRES(t *testing.T) {
	tres := ParseTRES("billing, cpu ,energy,gres/gpu")
	if len(tres.Tracked) != 4 {
		t.Fatalf("parsed %d entries", len(tres.Tracked))
	}
	if !tres.TracksEnergy() {
		t.Error("energy TRES not detected")
	}
	if ParseTRES("billing,cpu").TracksEnergy() {
		t.Error("energy detected where absent")
	}
}

func TestSubmitAccountsSetupEnergy(t *testing.T) {
	mgr := NewManager()
	job, err := mgr.Submit(smallJobConfig(), SubmitOptions{
		JobName: "test",
		SetupS:  30,
		TRES:    ParseTRES("energy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCompleted {
		t.Fatalf("state = %s", job.State)
	}
	if job.ConsumedEnergyJ <= job.LoopEnergyJ {
		t.Errorf("Slurm energy %v should exceed PMT loop energy %v (setup phase)",
			job.ConsumedEnergyJ, job.LoopEnergyJ)
	}
	// This toy job is tiny (5 steps) while setup is 30 s, so the gap is
	// large; production-scale gaps are validated in the Fig. 3 experiment.
	gap := (job.ConsumedEnergyJ - job.LoopEnergyJ) / job.ConsumedEnergyJ
	if gap <= 0 || gap >= 1 {
		t.Errorf("setup gap fraction %v implausible", gap)
	}
	if job.ElapsedS <= job.LoopTimeS {
		t.Error("elapsed should include setup time")
	}
}

func TestEnergyTrackingRequiresTRES(t *testing.T) {
	mgr := NewManager()
	job, err := mgr.Submit(smallJobConfig(), SubmitOptions{
		JobName: "no-energy",
		TRES:    ParseTRES("billing,cpu"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ConsumedEnergyJ != 0 {
		t.Errorf("energy recorded (%v J) without the energy TRES", job.ConsumedEnergyJ)
	}
	// The PMT path is application-level and unaffected.
	if job.LoopEnergyJ <= 0 {
		t.Error("loop energy missing")
	}
}

func TestGPUFreqFlagBecomesStaticStrategy(t *testing.T) {
	mgr := NewManager()
	job, err := mgr.Submit(smallJobConfig(), SubmitOptions{
		JobName:    "freq",
		GPUFreqMHz: 1005,
		TRES:       ParseTRES("energy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.Report.Strategy != "static-1005" {
		t.Errorf("strategy %q, want static-1005", job.Result.Report.Strategy)
	}
}

func TestJobIDsIncrement(t *testing.T) {
	mgr := NewManager()
	a, _ := mgr.Submit(smallJobConfig(), SubmitOptions{JobName: "a"})
	b, _ := mgr.Submit(smallJobConfig(), SubmitOptions{JobName: "b"})
	if b.ID != a.ID+1 {
		t.Errorf("ids %d, %d", a.ID, b.ID)
	}
	if len(mgr.jobs) != 2 || mgr.jobs[0] != a || mgr.jobs[1] != b {
		t.Error("job records lost")
	}
}

// A queued campaign's IDs and accounting order are the submission order,
// fixed before anything runs; running the jobs in another order — as a
// largest-first batch does — leaves the records a serial campaign leaves.
func TestQueueFixesIDsBeforeRun(t *testing.T) {
	serial, queued := NewManager(), NewManager()
	var want, jobs []*Job
	for i, name := range []string{"a", "b", "c"} {
		cfg := smallJobConfig()
		cfg.Steps = 3 + i
		j, err := serial.Submit(cfg, SubmitOptions{JobName: name})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j)
		jobs = append(jobs, queued.Queue(cfg, SubmitOptions{JobName: name}))
	}
	for i, j := range jobs {
		if j.State != StatePending || j.ID != want[i].ID || queued.jobs[i] != j {
			t.Fatalf("queued job %d: state %s id %d (want PENDING, %d), in place %v",
				i, j.State, j.ID, want[i].ID, queued.jobs[i] == j)
		}
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		if err := jobs[i].Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := queued.Sacct(nil), serial.Sacct(nil); got != want {
		t.Errorf("accounting differs from the serial campaign's:\n%s\nvs\n%s", got, want)
	}
}

func TestSacctFormat(t *testing.T) {
	mgr := NewManager()
	mgr.Submit(smallJobConfig(), SubmitOptions{JobName: "fmt", TRES: ParseTRES("energy")})
	out := mgr.Sacct(nil)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("sacct output:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "JobID|JobName|State") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "COMPLETED") {
		t.Errorf("row %q", lines[1])
	}
	// Custom field selection.
	out = mgr.Sacct([]string{"JobName", "ConsumedEnergy"})
	if !strings.HasPrefix(out, "JobName|ConsumedEnergy") {
		t.Errorf("custom fields: %q", out)
	}
}

func TestFormatEnergySuffixes(t *testing.T) {
	cases := map[float64]string{
		500:   "500",
		2500:  "2.50K",
		3.2e6: "3.20M",
	}
	for j, want := range cases {
		if got := formatEnergy(j); got != want {
			t.Errorf("formatEnergy(%v) = %q, want %q", j, got, want)
		}
	}
}

func TestSubmitFailsOnBadConfig(t *testing.T) {
	mgr := NewManager()
	cfg := smallJobConfig()
	cfg.ParticlesPerRank = 1e12 // exceeds GPU memory
	job, err := mgr.Submit(cfg, SubmitOptions{JobName: "bad"})
	if err == nil {
		t.Fatal("impossible job accepted")
	}
	if job.State != StateFailed {
		t.Errorf("state = %s, want FAILED", job.State)
	}
}

func TestThreeWayValidation(t *testing.T) {
	cfg := smallJobConfig()
	cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
	mgr := NewManager()
	job, err := mgr.Submit(cfg, SubmitOptions{
		JobName: "validate",
		SetupS:  30,
		TRES:    ParseTRES("billing,cpu,energy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ThreeWay(job, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("three-way validation failed: %s\n%+v", v.Summary(), v.Sources)
	}
	for _, name := range []string{"sampled-sensors", "pm_counters", "slurm-consumed"} {
		s, ok := v.Get(name)
		if !ok {
			t.Fatalf("source %s missing", name)
		}
		if s.Informational {
			t.Fatalf("source %s must gate the verdict", name)
		}
		if s.EnergyJ <= 0 {
			t.Fatalf("source %s reads %g J", name, s.EnergyJ)
		}
	}
	// The loop-only PMT row must show the Fig. 3 setup gap: below the
	// reference, but informational so it does not fail the check.
	loop, ok := v.Get("pmt-loop-only")
	if !ok || !loop.Informational {
		t.Fatalf("pmt-loop-only row = %+v (ok=%v)", loop, ok)
	}
	if loop.RelErrPct >= 0 {
		t.Errorf("loop-only energy should sit below the job reference, rel err %+.2f%%", loop.RelErrPct)
	}
	if job.Result.Report.Validation != v {
		t.Error("validation not attached to the report")
	}
	// Slurm's own row is exact by construction (same meters, same scope).
	sl, _ := v.Get("slurm-consumed")
	if sl.RelErrPct != 0 {
		t.Errorf("slurm-consumed rel err = %g, want 0", sl.RelErrPct)
	}
}

func TestThreeWayRequiresSamplerAndTRES(t *testing.T) {
	mgr := NewManager()
	job, err := mgr.Submit(smallJobConfig(), SubmitOptions{JobName: "plain", SetupS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThreeWay(job, 2); err == nil {
		t.Error("validation without sampling should error")
	}
	if _, err := ThreeWay(nil, 2); err == nil {
		t.Error("nil job should error")
	}
}
