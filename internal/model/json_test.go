package model

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, cfg := range zoo() {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg.Name, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s: round trip changed config:\n%+v\n%+v", cfg.Name, cfg, back)
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad class":       `{"name":"x","class":"RMC9","top_mlp":[1]}`,
		"bad interaction": `{"name":"x","class":"custom","interaction":"star","top_mlp":[1]}`,
		"invalid config":  `{"name":"x","class":"custom","top_mlp":[2]}`,
		"not json":        `{`,
	}
	for name, data := range cases {
		var cfg Config
		if err := json.Unmarshal([]byte(data), &cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSaveLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rmc2.json")
	want := RMC2Small()
	if err := SaveConfig(want, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("save/load changed config")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	if err := SaveConfig(Config{Name: "bad"}, path); err == nil {
		t.Error("invalid config should not save")
	}
}

func TestJSONSchemaStable(t *testing.T) {
	data, err := json.Marshal(RMC1Small())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, key := range []string{`"name"`, `"class"`, `"dense_in"`, `"bottom_mlp"`, `"top_mlp"`, `"tables"`, `"interaction"`, `"lookups"`} {
		if !strings.Contains(s, key) {
			t.Errorf("serialized config missing %s: %s", key, s)
		}
	}
}
