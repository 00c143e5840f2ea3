package kernel

import "testing"

// TestCheckedTableMeetsAccuracyGate pins the documented tabulation
// contract: at DefaultTablePoints the kernel stays within TableRelTol of
// its analytic form, and NewCheckedTable accepts it.
func TestCheckedTableMeetsAccuracyGate(t *testing.T) {
	for _, base := range kernels() {
		tab := NewCheckedTable(base, DefaultTablePoints)
		wErr, dwErr := tab.MaxRelError()
		if wErr > TableRelTol || dwErr > TableRelTol {
			t.Errorf("%s: wErr=%.3g dwErr=%.3g exceed gate %g", base.Name(), wErr, dwErr, TableRelTol)
		}
		if wErr == 0 && dwErr == 0 {
			t.Errorf("%s: zero interpolation error is implausible; gate test is vacuous", base.Name())
		}
	}
}

// TestCheckedTablePanicsBelowGate ensures the gate actually rejects
// under-resolved tables.
func TestCheckedTablePanicsBelowGate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCheckedTable accepted a 16-point table")
		}
	}()
	NewCheckedTable(WendlandC2{}, 16)
}
