// Package slurm models the Slurm workload-manager surface the paper relies
// on for energy validation (§II-A, §IV-A): job submission with a setup
// phase, Trackable RESource (TRES) energy accounting, the job record's
// ConsumedEnergy.
//
// The decisive behavioral detail for Fig. 3: Slurm integrates energy from
// job submission, so its ConsumedEnergy includes the launch/allocation/
// initialization phase that PMT's in-application measurement (which starts
// at the time-stepping loop) does not see.
package slurm

import (
	"fmt"
	"strings"

	"sphenergy/internal/attrib"
	"sphenergy/internal/core"
	"sphenergy/internal/pmcounters"
)

// TRESConfig is the AccountingStorageTRES setting; energy accounting only
// happens when the "energy" TRES is listed — exactly Slurm's behaviour.
type TRESConfig struct {
	Tracked []string
}

// ParseTRES parses an AccountingStorageTRES value such as
// "billing,cpu,energy,gres/gpu".
func ParseTRES(s string) TRESConfig {
	var out TRESConfig
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out.Tracked = append(out.Tracked, f)
		}
	}
	return out
}

// TracksEnergy reports whether the energy TRES is enabled.
func (t TRESConfig) TracksEnergy() bool {
	for _, f := range t.Tracked {
		if f == "energy" {
			return true
		}
	}
	return false
}

// SubmitOptions are the sbatch flags relevant to the paper.
type SubmitOptions struct {
	JobName string
	// SetupS is the job launch + application initialization time before the
	// time-stepping loop; defaults to 45 s.
	SetupS float64
	// TRES is the accounting configuration; energy is only recorded when
	// the energy TRES is tracked.
	TRES TRESConfig
}

// Job is one completed (or failed) job record.
type Job struct {
	ID int
	// Name is SubmitOptions.JobName, which nothing reads back. It stays
	// because the benchmark sets JobName.
	Name   string
	NTasks int
	// ConsumedEnergyJ is the TRES energy from submission to completion;
	// 0 when energy tracking is disabled.
	ConsumedEnergyJ float64
	// LoopEnergyJ and LoopTimeS are what the application-level PMT
	// instrumentation measured (the Fig. 3 comparison series).
	LoopEnergyJ float64
	LoopTimeS   float64
	Result      *core.Result

	// What Run executes and whether it accounts energy, fixed at Queue time.
	cfg          core.Config
	tracksEnergy bool
}

// Manager assigns job IDs.
type Manager struct {
	nextID int
}

// NewManager creates a manager whose first job is 1000.
func NewManager() *Manager { return &Manager{nextID: 1000} }

// Submit runs a simulation as a Slurm job: the setup phase is accounted
// from submission, and TRES energy is recorded at completion.
func (m *Manager) Submit(cfg core.Config, opts SubmitOptions) (*Job, error) {
	job := m.Queue(cfg, opts)
	return job, job.Run()
}

// Queue registers a job without running it: its ID is fixed now, in
// submission order, so a campaign can queue every job and then Run them in
// any order — or concurrently, each Job from one goroutine — with the IDs a
// serial campaign would have given.
func (m *Manager) Queue(cfg core.Config, opts SubmitOptions) *Job {
	if opts.SetupS == 0 {
		opts.SetupS = 45
	}
	cfg.SetupS = opts.SetupS
	job := &Job{
		ID:     m.nextID,
		Name:   opts.JobName,
		NTasks: cfg.Ranks,
		cfg:    cfg,
		// Default site config tracks energy (as on LUMI and CSCS).
		tracksEnergy: opts.TRES.TracksEnergy() || len(opts.TRES.Tracked) == 0,
	}
	m.nextID++
	return job
}

// Run executes a queued job to completion and fills in its accounting
// record.
func (j *Job) Run() error {
	res, err := core.Run(j.cfg)
	if err != nil {
		return fmt.Errorf("slurm: job %d: %w", j.ID, err)
	}
	j.Result = res
	j.LoopEnergyJ = res.Report.TotalEnergyJ
	j.LoopTimeS = res.WallTimeS
	if j.tracksEnergy {
		j.ConsumedEnergyJ = res.SetupEnergyJ + res.Report.TotalEnergyJ
	}
	return nil
}

// ThreeWay reproduces the paper's cross-source energy validation (§IV-A,
// Fig. 3) for a completed job: the model's exactly-integrated job energy
// (setup + loop) is the reference, compared against (1) the async
// sampler's node-sensor accumulation, (2) a direct pm_counters read of
// every node, and (3) Slurm's ConsumedEnergy accounting. The loop-only
// PMT measurement is added as an informational row — its deviation IS the
// Fig. 3 setup-energy gap, not a measurement error. thresholdPct <= 0
// selects the default 2% gate. The verdict is attached to the job's
// report for serialization.
func ThreeWay(job *Job, thresholdPct float64) (*attrib.Validation, error) {
	if job == nil || job.Result == nil {
		return nil, fmt.Errorf("slurm: three-way validation needs a completed job")
	}
	res := job.Result
	if res.Sampler == nil {
		return nil, fmt.Errorf("slurm: three-way validation needs async sampling (core.Config.Sampling)")
	}
	if job.ConsumedEnergyJ == 0 {
		return nil, fmt.Errorf("slurm: three-way validation needs the energy TRES tracked")
	}
	referenceJ := res.SetupEnergyJ + res.Report.TotalEnergyJ
	pmJ := 0.0
	for _, n := range res.System.Nodes {
		pmJ += pmcounters.New(n).Energy()
	}
	v := attrib.NewValidation(referenceJ, thresholdPct)
	v.Add("sampled-sensors", res.Sampler.NodeAccumJ(), false)
	v.Add("pm_counters", pmJ, false)
	v.Add("slurm-consumed", job.ConsumedEnergyJ, false)
	v.Add("pmt-loop-only", job.LoopEnergyJ, true)
	if res.Sampler.Degraded() {
		// The sampler served estimated readings (NaN/stuck faults); its
		// accumulation — and Slurm's accounting, which is fed by the same
		// node sensors — cannot arbitrate the 2% gate.
		// Classify them as unresolvable instead of failing the contract.
		v.MarkDegraded("sampled-sensors")
		v.MarkDegraded("slurm-consumed")
	}
	res.Report.Validation = v
	return v, nil
}
