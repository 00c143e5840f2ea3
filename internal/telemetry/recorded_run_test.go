package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	tele "sphenergy/internal/telemetry"
)

// recordedRunSHA256 is the SHA-256 of the trace recordedRun exports. It was
// taken at commit 08cd155 with the encoding/json exporter, so that the append
// encoder is held to real bytes, not only to a copy of its code, and
// re-recorded once when every event became one interned record: a track's
// events now export in recording order, where by-name events used to come
// first. The re-recorded trace, split into events and sorted, is the
// 08cd155 trace's byte for byte. Re-recorded a second time when the trace
// stopped recording a strategy's decisions, which are the ledger's rows: the
// trace is commit 6058faf's less its 9 600 decision:<fn> instants, split
// into events and sorted.
const recordedRunSHA256 = "e85f685f70e7b63ca5e497c014e68271bd060bc6a3dc7ae4c6a4afbd1ed6b7e1"

// recordedRun is one fixed observed run — 8 ranks, 300 steps, ManDyn, with
// the sampler and the decision ledger on — traced once and shared by the
// identity tests and the export/read-back benchmarks (83 417 events).
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
		t.Errorf("trace of the fixed run hashes to %s, recorded %s", h, recordedRunSHA256)
	}
}

// TestTraceBytesPerEventPinned is the tracer's memory ruler: the events the
// recorded run's tracer holds, the bytes its blocks hold, whole, what its
// records take and how many imply their start, pinned exactly. A figure
// that moves means the run, the record layout or the block size changed.
// As 40-byte structs, 512 to a block, the same trace held 3 481 600 bytes,
// 41.7 per event.
func TestTraceBytesPerEventPinned(t *testing.T) {
	tr := mustRecordedRun(t)
	held, n := tele.HeldBytes(tr), tr.Len()
	recBytes, implied := tele.RecordBytes(tr)
	t.Logf("%d events in %d bytes (%.2f B/event); records %d bytes (%.2f B/event), %d imply their start",
		n, held, float64(held)/float64(n), recBytes, float64(recBytes)/float64(n), implied)
	if n != 83417 || held != 1785856 || recBytes != 1728555 || implied != 55937 {
		t.Errorf("the trace holds %d events in %d bytes, records of %d bytes, %d implied; want 83417 in 1785856, 1728555, 55937",
			n, held, recBytes, implied)
	}
	if held > 24*n {
		t.Errorf("an event holds %.2f bytes, want at most 24", float64(held)/float64(n))
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

// BenchmarkTraceWriteFile is BenchmarkTraceWriteJSON through the file, as
// a bundle writes it: the export onto a synced temp file in b.TempDir(),
// renamed over the trace.
func BenchmarkTraceWriteFile(b *testing.B) {
	tr := mustRecordedRun(b)
	var size countWriter
	if err := tr.WriteJSON(&size); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "trace.json")
	b.SetBytes(size.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteFile(path); err != nil {
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
