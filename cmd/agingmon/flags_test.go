package main

import (
	"testing"

	"agingmf/internal/runtime"
)

// TestFlagSurface pins the command's flag names and defaults: they are
// part of the CLI compatibility contract, and a rename or default change
// here must be a conscious, test-visible decision.
func TestFlagSurface(t *testing.T) {
	var opt options
	got := runtime.FlagDefaults(newFlagSet(&opt))
	want := map[string]string{
		"seed":                  "1",
		"ram-mib":               "64",
		"swap-mib":              "24",
		"leak":                  "3.5",
		"max-ticks":             "60000",
		"history-limit":         "4096",
		"stdin":                 "false",
		"state":                 "",
		"metrics-addr":          "",
		"pprof":                 "false",
		"events":                "",
		"tick-every":            "0s",
		"max-bad-samples":       "100",
		"stall-timeout":         "0s",
		"trace-sample":          "0",
		"flight-recorder-depth": "64",
		"rejuv-policy":          "",
	}
	for name, def := range want {
		gotDef, ok := got[name]
		if !ok {
			t.Errorf("flag -%s is missing", name)
			continue
		}
		if gotDef != def {
			t.Errorf("flag -%s default %q, want %q", name, gotDef, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected flag -%s (default %q): extend the surface table deliberately", name, got[name])
		}
	}
}
