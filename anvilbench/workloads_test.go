package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// Every registered experiment runs in exactly one in-process workload.
func TestWorkloadsCoverRegistry(t *testing.T) {
	seen := map[string]string{}
	for w, names := range simWorkloads {
		for _, n := range names {
			if _, ok := scenario.Find(n); !ok {
				t.Errorf("%s: %q is not registered", w, n)
			}
			if prev, dup := seen[n]; dup {
				t.Errorf("%q is in both %s and %s", n, prev, w)
			}
			seen[n] = w
		}
	}
	for _, n := range scenario.Names() {
		if seen[n] == "" {
			t.Errorf("registered experiment %q is in no workload", n)
		}
	}
}

func TestEndpoint(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/jobs", "submit"},
		{"GET", "/v1/jobs/j7", "poll"},
		{"GET", "/v1/jobs/j7/result", "result"},
		{"POST", "/v1/leases/claim", "claim"},
		{"POST", "/v1/leases/l3/renew", "renew"},
		{"POST", "/v1/leases/l3/results", "upload"},
		{"POST", "/v1/leases/l3/release", "release"},
		{"GET", "/v1/healthz", "other"},
	} {
		if got := endpoint(c.method, c.path); got != c.want {
			t.Errorf("%s %s: %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

type declared struct{ Name, Unit string }

// The metrics the binary prints, and their units, match what BENCHMARK.json
// declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, decl []declared, printed []string) {
		want := map[string]bool{}
		for _, m := range decl {
			want[m.Name] = true
			if u := unitOf(m.Name); u != m.Unit {
				t.Errorf("%s: %s is printed in %s but declared in %s", what, m.Name, u, m.Unit)
			}
		}
		for _, n := range printed {
			if !want[n] {
				t.Errorf("%s: %s is printed but not declared", what, n)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("%s: %s is declared but never printed", what, n)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
