package main

import (
	"testing"

	"recsys/internal/model"
)

func TestParseWidths(t *testing.T) {
	got, err := parseWidths("256-128-32")
	if err != nil || len(got) != 3 || got[0] != 256 || got[2] != 32 {
		t.Fatalf("parseWidths = %v, %v", got, err)
	}
	if _, err := parseWidths("a-b"); err == nil {
		t.Error("garbage should error")
	}
	if got, err := parseWidths(" 8 - 4 "); err != nil || got[0] != 8 || got[1] != 4 {
		t.Errorf("whitespace handling: %v, %v", got, err)
	}
}

func TestCustomConfig(t *testing.T) {
	cfg, err := customConfig(13, "64-16", "16-1", 4, 1000, 16, 8, "dot")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != model.Custom || cfg.Interaction != model.Dot || len(cfg.Tables) != 4 {
		t.Errorf("custom config wrong: %+v", cfg)
	}
	// Dot with mismatched dims must be rejected by validation.
	if _, err := customConfig(13, "64-32", "16-1", 4, 1000, 8, 8, "dot"); err == nil {
		t.Error("dot dim mismatch should fail validation")
	}
	// Bad widths propagate.
	if _, err := customConfig(13, "64-x", "16-1", 4, 1000, 16, 8, "cat"); err == nil {
		t.Error("bad bottom widths should error")
	}
	if _, err := customConfig(13, "64-32", "x", 4, 1000, 16, 8, "cat"); err == nil {
		t.Error("bad top widths should error")
	}
}
