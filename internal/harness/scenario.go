package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/bamboo-bft/bamboo/internal/config"
)

// LoadExperiment reads one declared scenario from a JSON file — the
// `bamboo-bench -run scenario.json` path, where a scenario is a
// committed artifact rather than a Go literal. The configuration
// section starts from config.Default() (like a bamboo-server config
// file), so a scenario only states what it changes; unknown fields are
// rejected, because a typo'd knob silently falling back to a default
// would run "green" while measuring the wrong thing. Both the
// experiment and its configuration are validated before anything runs.
func LoadExperiment(path string) (Experiment, error) {
	exp := Experiment{Config: config.Default()}
	data, err := os.ReadFile(path)
	if err != nil {
		return exp, fmt.Errorf("harness: scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&exp); err != nil {
		return exp, decodeError(path, data, err)
	}
	if dec.More() {
		return exp, fmt.Errorf("harness: scenario %s: trailing data after the experiment object", path)
	}
	// Mirror config.Load: an address map fixes the replica count.
	if len(exp.Config.Addrs) > 0 {
		exp.Config.N = len(exp.Config.Addrs)
	}
	if exp.Name == "" {
		exp.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if err := exp.Validate(); err != nil {
		return exp, fmt.Errorf("harness: scenario %s: %w", path, err)
	}
	return exp, nil
}

// decodeError rewrites JSON decode failures so the message names the
// offending field, or the line and column of the syntax error — a
// typo'd scenario should point at itself, not at decoder internals.
func decodeError(path string, data []byte, err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		field := typeErr.Field
		if field == "" {
			field = "(top level)"
		}
		line, col := lineCol(data, typeErr.Offset)
		return fmt.Errorf("harness: scenario %s:%d:%d: field %q wants a %s, not JSON %s",
			path, line, col, field, typeErr.Type, typeErr.Value)
	}
	var synErr *json.SyntaxError
	if errors.As(err, &synErr) {
		line, col := lineCol(data, synErr.Offset)
		return fmt.Errorf("harness: scenario %s:%d:%d: %w", path, line, col, err)
	}
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		field := strings.TrimPrefix(msg, "json: unknown field ")
		return fmt.Errorf("harness: scenario %s: unknown field %s (every accepted field is documented in docs/scenarios.md)",
			path, field)
	}
	return fmt.Errorf("harness: scenario %s: %w", path, err)
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
			continue
		}
		col++
	}
	return line, col
}
