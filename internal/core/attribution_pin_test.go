package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// TestAttributionJSONPinned holds the attribution a run joins to SHA-256s of
// its JSON recorded at commit 6a86d41, when the join ran once, after the
// run, over every tick the rank channels had kept. The join now folds each
// record while the run runs, as soon as its rank's channel holds the ticks
// it reads, and the channels let go of the rest: every sum must come out
// bit for bit as it did. The runs: ManDyn on eight CSCS-A100 ranks with the
// decision ledger on, for 30 steps and for 300; Evrard on LUMI-G; LUMI-G
// under transient and stuck sensor faults, so rows rest on degraded ticks;
// and a miniHPC run whose rank 3 reads a stuck sensor from the start, so
// its channel takes its baseline late and the spans before it integrate to
// nothing.
//
// Each run's sampler is held too: its channels' names, Stats and AccumJ
// and its NodeAccumJ, as recorded at commit 6307a9c, when the node channels
// still kept every tick in their rings (3 116 each at the end of the
// 300-step run). A node channel now holds none.
func TestAttributionJSONPinned(t *testing.T) {
	lumiFaults := func() Config {
		spec := cluster.LUMIG()
		max := spec.GPUSpec.MaxSMClockMHz
		return Config{System: spec, Ranks: 2, Sim: Turbulence, ParticlesPerRank: 10e6, Steps: 12, Seed: 11,
			Tracer:   telemetry.NewTracer(2),
			Sampling: sampler.Config{GPUHz: 100, NodeHz: 10},
			Faults: &faults.Plan{Name: "sensor-noise", Seed: 11, Rules: []faults.Rule{
				{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.1},
				{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.05, Burst: 3},
			}},
			NewStrategy: func() freqctl.Strategy {
				return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
			},
		}
	}
	lateBaseline := func() Config {
		spec := cluster.MiniHPC()
		max := spec.GPUSpec.MaxSMClockMHz
		return Config{System: spec, Ranks: 4, Sim: Turbulence, ParticlesPerRank: 10e6, Steps: 3, Seed: 6,
			Tracer:   telemetry.NewTracer(4),
			Sampling: sampler.Config{GPUHz: 100, NodeHz: 10},
			Faults: &faults.Plan{Seed: 6, Rules: []faults.Rule{
				{Kind: faults.Stuck, Target: faults.TargetSensor, Probability: 0.10, Burst: 2},
			}},
			NewStrategy: func() freqctl.Strategy {
				return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
			},
		}
	}
	for _, c := range []struct {
		name        string
		cfg         Config
		want, stats string
	}{
		{"cscs-mandyn-8", observedConfig(8, 30),
			"81677ec8fab9a54cf237f1710306e8ecc104e6868c315d0c0103c076d61499ea",
			"7f839f38b80d66656374e85b3c8cef5b5b0bb69c65e9b1c15e130e005fc736de"},
		{"cscs-mandyn-8x300", observedConfig(8, 300),
			"91bc070d09c8761c7cdcaede1f8c44fe79b58231e2b7ee80dc32969884aa4cae",
			"d44a93d56149ba1dce367b8a4e87dd0bfef2c07d109a72a1bd020cc6788e35dd"},
		{"lumig-evrard-4", Config{System: cluster.LUMIG(), Ranks: 4, Sim: Evrard, ParticlesPerRank: 10e6,
			Steps: 20, Seed: 7, Tracer: telemetry.NewTracer(4), Sampling: sampler.Config{GPUHz: 100, NodeHz: 10}},
			"31d73be3211db589534e58426acdf65644496b171d10f403955298398735cd32",
			"a5722f8d89cfe30bef9e1b4b83b5d84c5f4a7a8989fa4fba2b898002372e559b"},
		{"lumig-sensor-faults-2", lumiFaults(),
			"651f49ac7c280484bc6576208b920c01cbd4af79b80e0c38b7f0355161991b8d",
			"9dfeec9fd71491d9612d0504d471d7dfd946546c18994914714b497773aed3a4"},
		{"late-baseline-4", lateBaseline(),
			"2f1f61dd997d87656c6f5ce104cc31d6b5f375e7fdbabd976c8d83138a8c81c9",
			"88ffbcc5e184b5d0c6bdd146497fb4a68400eed49c15524f7d0ea8faf172c650"},
	} {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a := res.Attribution
		if a == nil || len(a.Kernels) == 0 || len(a.Functions) == 0 {
			t.Fatalf("%s: no attribution rows: %+v", c.name, a)
		}
		if c.cfg.Faults != nil && !a.Degraded {
			t.Errorf("%s: the sensor plan flagged no row", c.name)
		}
		var least, most uint64
		for _, st := range res.Sampler.Stats() {
			if st.Rank >= 0 {
				if least == 0 || st.Ticks < least {
					least = st.Ticks
				}
				most = max(most, st.Ticks)
			}
		}
		if c.name == "late-baseline-4" && least == most {
			t.Errorf("%s: every rank channel emitted %d ticks; none took its baseline late", c.name, most)
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: attribution JSON sha256 = %s, want %s", c.name, got, c.want)
		}
		if got := samplerDigest(res.Sampler); got != c.stats {
			t.Errorf("%s: sampler stats sha256 = %s, want %s", c.name, got, c.stats)
		}
		for _, ch := range res.Sampler.Channels() {
			if held := ch.Series(); ch.Stats().Rank < 0 && (held.Len() != 0 || len(held.Degraded) != 0) {
				t.Errorf("%s: %s holds %d ticks, %d degraded runs", c.name, ch.Name(), held.Len(), len(held.Degraded))
			}
		}
	}
}

// samplerDigest is the SHA-256 of the JSON of a sampler's channels — name,
// Stats and AccumJ each, in registration order — and its NodeAccumJ.
func samplerDigest(s *sampler.Sampler) string {
	type channel struct {
		Name   string
		Stats  sampler.Stats
		AccumJ float64
	}
	var chs []channel
	for _, c := range s.Channels() {
		chs = append(chs, channel{c.Name(), c.Stats(), c.AccumJ()})
	}
	b, err := json.Marshal(struct {
		Channels []channel
		NodeJ    float64
	}{chs, s.NodeAccumJ()})
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
