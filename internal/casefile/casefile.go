// Package casefile defines the JSON interchange format between the
// pipeline CLI (which exports candidate beaconing cases) and the triage
// CLI (which trains/applies the classifier): one Case per candidate pair,
// carrying the Table II feature vector and the ranking indicators, plus a
// labels file mapping case IDs to analyst verdicts.
package casefile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"baywatch/internal/durable"
)

// Case is one candidate communication pair as exported by the pipeline.
type Case struct {
	// ID is "source|destination", unique per pair.
	ID string `json:"id"`
	// Source and Destination identify the pair.
	Source      string `json:"source"`
	Destination string `json:"destination"`
	// Features is the classifier input vector (see baywatch.FeatureNames).
	Features []float64 `json:"features"`
	// Score is the weighted ranking score.
	Score float64 `json:"score"`
	// Periods are the detected periods in seconds, strongest first.
	Periods []float64 `json:"periods"`
	// LMScore is the destination's language-model log-probability.
	LMScore float64 `json:"lmScore"`
}

// Write stores cases as indented JSON, atomically and durably.
func Write(path string, cases []Case) error {
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		return fmt.Errorf("casefile: marshal: %w", err)
	}
	return writeFile(path, data)
}

// Read loads a case file and validates its shape: non-empty IDs and a
// consistent feature dimension.
func Read(path string) ([]Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("casefile: read: %w", err)
	}
	var cases []Case
	if err := json.Unmarshal(data, &cases); err != nil {
		return nil, fmt.Errorf("casefile: parse: %w", err)
	}
	dim := -1
	for i, c := range cases {
		if c.ID == "" {
			return nil, fmt.Errorf("casefile: case %d has empty id", i)
		}
		if dim == -1 {
			dim = len(c.Features)
		} else if len(c.Features) != dim {
			return nil, fmt.Errorf("casefile: case %q has %d features, others have %d", c.ID, len(c.Features), dim)
		}
	}
	return cases, nil
}

// ReadLabels loads a labels file: a JSON object mapping case ID to 0
// (benign) or 1 (malicious).
func ReadLabels(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("casefile: read labels: %w", err)
	}
	var labels map[string]int
	if err := json.Unmarshal(data, &labels); err != nil {
		return nil, fmt.Errorf("casefile: parse labels: %w", err)
	}
	for id, v := range labels {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("casefile: label for %q is %d, want 0 or 1", id, v)
		}
	}
	return labels, nil
}

// WriteLabels stores a labels file, atomically and durably.
func WriteLabels(path string, labels map[string]int) error {
	data, err := json.MarshalIndent(labels, "", "  ")
	if err != nil {
		return fmt.Errorf("casefile: marshal labels: %w", err)
	}
	return writeFile(path, data)
}

// writeFile creates path's directory and replaces path with data through
// durable.WriteFile.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("casefile: mkdir: %w", err)
	}
	if err := durable.WriteFile(path, data, durable.Points{}); err != nil {
		return fmt.Errorf("casefile: %w", err)
	}
	return nil
}
