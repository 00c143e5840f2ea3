package instr

import (
	"bytes"
	"encoding/csv"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundtrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "rank,function,calls") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	i := 1
	for _, rp := range r.Ranks {
		for _, fn := range rp.FunctionNames() {
			st, row := rp.Get(fn), rows[i]
			i++
			calls, _ := strconv.Atoi(row[2])
			timeS, _ := strconv.ParseFloat(row[3], 64)
			gpuJ, _ := strconv.ParseFloat(row[4], 64)
			if row[0] != strconv.Itoa(rp.Rank) || row[1] != fn || calls != st.Calls ||
				math.Abs(timeS-st.TimeS) > 1e-9 || math.Abs(gpuJ-st.GPUJ) > 1e-9 {
				t.Errorf("row %v, want rank %d %+v", row, rp.Rank, st)
			}
		}
	}
	if i != len(rows) {
		t.Errorf("%d rows, want %d", len(rows), i)
	}
}

func TestCSVFile(t *testing.T) {
	r := sampleReport()
	path := filepath.Join(t.TempDir(), "report.csv")
	if err := r.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRowCount(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	r.WriteCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 ranks x 2 functions
	if len(lines) != 1+4 {
		t.Errorf("%d lines", len(lines))
	}
}
