package main

import "fmt"

// runLayers is the traced run: every section of the per-module layer table
// once, each call into a layer inside a span. The chosen workload's unit of
// work also runs once untraced, for bench.trace_overhead_ratio.
func runLayers(b *bench) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	sections := []struct {
		name string
		run  func() error
	}{
		{"figures", func() error { return figuresLayers(b, goldens) }},
		{"probes", func() error { return probeLayers(b) }},
		{"fleet-lit", func() error { return litLayers(b) }},
		{"fleet-dark", func() error { return darkLayers(b) }},
		{"serve", func() error { return serveLayers(b, goldens) }},
	}
	for _, s := range sections {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s section: %w", s.name, err)
		}
	}
	return nil
}
