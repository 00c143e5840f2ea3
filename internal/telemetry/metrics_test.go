package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

// TestJSONSnapshot pins the one behaviour the empty registry keeps: its
// WriteFile leaves the bytes a registry with no families always wrote.
func TestJSONSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := NewRegistry().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"metrics\": null\n}\n"; string(got) != want {
		t.Errorf("metrics.json = %q, want %q", got, want)
	}
}
