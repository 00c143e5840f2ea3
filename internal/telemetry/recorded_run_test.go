package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	tele "sphenergy/internal/telemetry"
)

// recordedRunSHA256 is the SHA-256 of the trace recordedRun exports, taken
// at commit 08cd155 with the encoding/json exporter: the append encoder is
// held to the parent's real bytes, not only to a copy of its code.
const recordedRunSHA256 = "e05cfe7e028ad394701c413ac0ba4f8166b77cefa0ed127b70c478ef829a7fa9"

// recordedRun is one fixed observed run — 8 ranks, 300 steps, ManDyn, with
// the sampler and the decision ledger on — traced once and shared by the
// identity tests and the export/read-back benchmarks (93 017 events).
var recordedRun = sync.OnceValues(func() (*tele.Tracer, error) {
	cfg := core.Config{
		System:           cluster.MiniHPC(),
		Ranks:            8,
		Sim:              core.Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            300,
		Seed:             42,
		Tracer:           tele.NewTracer(8),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{core.FnIAD: 1005, core.FnMomentum: 1110}}
		},
	}
	_, err := core.Run(cfg)
	return cfg.Tracer, err
})

func mustRecordedRun(tb testing.TB) *tele.Tracer {
	tb.Helper()
	tr, err := recordedRun()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestWriteJSONMatchesOracleOnRealRun holds the export of a real observed
// run to the map-based oracle and to the parent commit's recorded hash.
func TestWriteJSONMatchesOracleOnRealRun(t *testing.T) {
	tr := mustRecordedRun(t)
	var want, got bytes.Buffer
	if err := tele.OracleWriteJSON(tr, &want); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("WriteJSON (%d bytes) differs from the oracle (%d bytes) at offset %d", got.Len(), want.Len(), i)
	}
	sum := sha256.Sum256(got.Bytes())
	if h := hex.EncodeToString(sum[:]); h != recordedRunSHA256 {
		t.Errorf("trace of the fixed run hashes to %s, commit 08cd155 wrote %s", h, recordedRunSHA256)
	}
}

// countWriter counts the bytes an export produces.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func BenchmarkTraceWriteJSON(b *testing.B) {
	tr := mustRecordedRun(b)
	var size countWriter
	if err := tr.WriteJSON(&size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

var spansSink []tele.SpanEvent

func BenchmarkSpansReadBack(b *testing.B) {
	tr := mustRecordedRun(b)
	spansSink = tr.Spans()
	const spanEventBytes = 88 // unsafe.Sizeof(SpanEvent{}) on 64-bit
	b.SetBytes(int64(len(spansSink)) * spanEventBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spansSink = tr.Spans()
	}
}
