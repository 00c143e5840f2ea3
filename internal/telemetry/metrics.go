package telemetry

import (
	"fmt"
	"io"

	"sphenergy/internal/atomicio"
)

// Registry is an empty remnant: nothing records into it, and no run bundle
// holds its file. It stays only because the repository's benchmark sets
// core.Config.Metrics to one and times its WriteFile; it goes when the
// benchmark drops those two lines.
type Registry struct{}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// WriteFile writes the empty registry's JSON, {"metrics": null}, to path
// atomically.
func (r *Registry) WriteFile(path string) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "{\n  \"metrics\": null\n}\n")
		return err
	})
	if err != nil {
		return fmt.Errorf("telemetry: write metrics: %w", err)
	}
	return nil
}
