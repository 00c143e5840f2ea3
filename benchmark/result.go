package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

const resultSchema = "sphenergy-benchmark/1"

// benchResult is the result file of one invocation.
type benchResult struct {
	Schema    string           `json:"schema"`
	Env       envStamp         `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

// envStamp records where and when the numbers were taken.
type envStamp struct {
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOGC         string  `json:"gogc"`
	LoadavgStart float64 `json:"loadavg_start"`
	LoadavgEnd   float64 `json:"loadavg_end"`
	StartedAt    string  `json:"started_at"`
	EndedAt      string  `json:"ended_at"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name         string   `json:"name"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced invocation.
	Metrics map[string]metricResult `json:"metrics,omitempty"`
	// OpTimes is the median of the pooled op times and the highest
	// percentile that still has ten samples beyond it (engine workloads).
	OpTimes *opTimes `json:"op_times,omitempty"`
	// Layers holds the per-layer metrics of a traced invocation.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Exact holds the values that repeat exactly for one seed, so two
	// commits can be compared bit for bit.
	Exact map[string]string `json:"exact,omitempty"`
	Reps  []repStamp        `json:"reps"`
}

func (w *workloadResult) correct() bool { return w.OpsFailed == 0 && len(w.Failures) == 0 }

// metricResult is one end-to-end metric: the headline value, and the
// dispersion of the per-repetition samples behind it.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
	Samples []float64 `json:"samples"`
}

type opTimes struct {
	P50Ms          float64 `json:"p50_ms"`
	TailMs         float64 `json:"tail_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	N              int     `json:"n"`
}

// repStamp says when a repetition started and how busy the machine was:
// PrefaultS is what pre-faulting its heap took (in no timing), Slowdown what
// the host-speed probe read over its measured window (what the timings were
// divided by); both 0 where the child measured nothing. Flagged marks a start
// load average above the CPU count.
type repStamp struct {
	Mode       string  `json:"mode"`
	StartUnixS float64 `json:"start_unix_s"`
	PrefaultS  float64 `json:"prefault_s,omitempty"`
	Slowdown   float64 `json:"host_slowdown,omitempty"`
	Loadavg    float64 `json:"loadavg"`
	Flagged    bool    `json:"flagged,omitempty"`
}

func (r *benchResult) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func (r *benchResult) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResult(r io.Reader) (*benchResult, error) {
	var res benchResult
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return nil, err
	}
	if res.Schema != resultSchema {
		return nil, fmt.Errorf("schema %q, want %q", res.Schema, resultSchema)
	}
	return &res, nil
}

func readResultFile(path string) (*benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := readResult(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

func (r *benchResult) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
