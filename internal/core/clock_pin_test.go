package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// breakerConfig is a 2-rank ManDyn run with every observer on whose plan
// rejects each clock set on rank 1: the rank's sets exhaust their retries,
// three absorbed failures latch its breaker (whose own set is rejected
// too), and every later set short-circuits.
func breakerConfig() Config {
	max := cluster.MiniHPC().GPUSpec.MaxSMClockMHz
	return Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
		Seed:             5,
		Tracer:           telemetry.NewTracer(2),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Faults: &faults.Plan{Name: "breaker", Seed: 9, Rules: []faults.Rule{
			{Kind: faults.RejectedSet, Target: faults.TargetClock, Ranks: []int{1}},
		}},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnMomentum: max, FnIAD: max}, Default: max * 3 / 4}
		},
	}
}

// TestClockPathBytesPinned holds the ledger JSONL, the trace JSON and the
// fault report JSON of faulted runs to the SHA-256s they had when a rank's
// clock control was a stack of five setters (the ledger's tap, a resilient
// setter, the clock-fault wrapper, the trace's tap, the device setter), so
// the one type that replaced them is held to the same bytes: LUMI-G's
// chaos runs with rejected sets and an off-table clamp, the CSCS-A100 run
// under redistribute, and the breaker run, the one that trips a breaker.
// The breaker run's ledger was re-recorded once since: none of rank 1's
// sets reaches its device, and its twelve freq-decision rows (seq 10 to
// 54, four functions a step) gained detail "not-applied" and the governor
// clock the device ran as their applied_mhz, where they had carried none.
func TestClockPathBytesPinned(t *testing.T) {
	rows := []struct {
		name                 string
		cfg                  func() Config
		ledger, trace, fault string
	}{
		{"lumi-seed-1", func() Config { return lumiChaosConfig(t, 1) },
			"b13bc6c055b80156b673f7797bfa5a9b3d5f215260cad0429bc56a5c702dc02e",
			"b53825779133c3e9a84d1428359dc78c40855c4fc84e90046a537ce52e608c5a",
			"b2529fcb536d4f921329901c83ef7cd6aef020391059e2be0fc1365fed9ca3e9"},
		{"lumi-seed-2", func() Config { return lumiChaosConfig(t, 2) },
			"d2931cb3203270d32115292d6ae1b5ca0f0633ed8317e945e14813c2c5759386",
			"b917faac0e215c042d6b4eaeb0ac22f7083873b655cef782de62a58563668469",
			"0c4a4d398ed2171bf499794bfbfe4b1c48c862eebf26d0cf4cb3532f3a5a2ebd"},
		{"lumi-seed-3", func() Config { return lumiChaosConfig(t, 3) },
			"e45fcec5a9bb7f1f294f5719ef217e8dd2d3eaa2ced4d8bfe771c6e84f582d98",
			"b9c2855b45463923aa910093ea8ed4c740e52d436169beeffd16b63abe3afaad",
			"35ecd3a6a5f8e67f089bbcd43c8a610a693cb1f3d8af89ca8f8ac20079707ce5"},
		{"cscs-42", cscsChaosConfig,
			"6277144bc9aad80dfaae8daa709010df385f4fc4b6cfca8c4b44443c989590d4",
			"0e3f142c5fb34c4b1f91b48f9f5429d73ce575a8f470b68a3986d1656bdadeb9",
			"17a7f86a0c44ece298009d34d80883c17a014ca36d1d66c2c63cb71f54d8b9ef"},
		{"breaker", breakerConfig,
			"a2b99861beef67098fa24e37cdc9c6e400c8adf06fef5c95b91be03b2fae71ef",
			"e0f84c0a58e292a4932695f0fa1812f4d91e27f2fd255a070031605ba9201be4",
			"188e4412cc7b175699a256f8f204b688475ef9ce92eedaac24253c65941046c3"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ledger, trace bytes.Buffer
			if err := cfg.Events.WriteJSONL(&ledger); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Tracer.WriteJSON(&trace); err != nil {
				t.Fatal(err)
			}
			report, err := json.Marshal(res.Faults)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name string
				data []byte
				want string
			}{{"ledger", ledger.Bytes(), r.ledger}, {"trace", trace.Bytes(), r.trace}, {"fault report", report, r.fault}} {
				sum := sha256.Sum256(f.data)
				if h := hex.EncodeToString(sum[:]); h != f.want {
					t.Errorf("%s hashes to %s, recorded %s", f.name, h, f.want)
				}
			}
			if r.name != "breaker" {
				return
			}
			byType := cfg.Events.Summary().ByType
			for _, typ := range []events.Type{events.FreqRetry, events.FreqAbsorb, events.FreqBreakerTrip, events.FreqShortCircuit} {
				if byType[typ] == 0 {
					t.Errorf("no %s row", typ)
				}
			}
			if res.Faults.BrokenRanks != 1 {
				t.Errorf("broken ranks %d, want 1: %+v", res.Faults.BrokenRanks, *res.Faults)
			}
		})
	}
}
