package instr

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"sphenergy/internal/atomicio"
)

// csvHeader is the column set of the per-function CSV export, the format
// the paper's post-hoc analysis scripts consume.
var csvHeader = []string{
	"rank", "function", "calls", "time_s", "gpu_j", "cpu_j", "mem_j", "other_j", "comm_s",
}

// WriteCSV exports every rank's per-function measurements as CSV rows.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("instr: %w", err)
	}
	for _, rp := range r.Ranks {
		for _, st := range rp.Functions {
			row := []string{
				strconv.Itoa(rp.Rank),
				st.Name,
				strconv.Itoa(st.Calls),
				formatF(st.TimeS),
				formatF(st.GPUJ),
				formatF(st.CPUJ),
				formatF(st.MemJ),
				formatF(st.OtherJ),
				formatF(st.CommS),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("instr: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }

// WriteCSVFile writes the CSV export to path, atomically.
func (r *Report) WriteCSVFile(path string) error {
	if err := atomicio.WriteFile(path, r.WriteCSV); err != nil {
		return fmt.Errorf("instr: %w", err)
	}
	return nil
}
