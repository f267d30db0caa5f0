// Determinism tests for the scenario engine: the same registry experiment
// must serialize byte-identically across runs, and RunReplicates must merge
// replicates into byte-identical output regardless of worker-pool size.
// These run under -race in CI, so they also double as the data-race check
// on the parallel runner.
package scenario_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	_ "repro/internal/experiments" // registers every table and figure
	"repro/internal/scenario"
)

// marshalRun executes a registered experiment and returns its JSON.
func marshalRun(t *testing.T, name string, cfg scenario.Config) []byte {
	t.Helper()
	e, ok := scenario.Find(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	return raw
}

func TestRegistryExperimentRepeatsByteIdentical(t *testing.T) {
	cfg := scenario.Config{Quick: true, Seed: 7}
	first := marshalRun(t, "table1", cfg)
	second := marshalRun(t, "table1", cfg)
	if !bytes.Equal(first, second) {
		t.Errorf("same experiment, same config, different JSON:\n%s\nvs\n%s", first, second)
	}
	if len(first) == 0 || string(first) == "null" {
		t.Errorf("empty artifact: %s", first)
	}
}

// replicateJSON runs 8 seed-sharded attack replicates through RunReplicates
// at the given parallelism and serializes the merged results.
func replicateJSON(t *testing.T, workers int) []byte {
	t.Helper()
	type outcome struct {
		Seed      uint64 `json:"seed"`
		Accesses  uint64 `json:"accesses"`
		FlipCount int    `json:"flipCount"`
	}
	results, err := scenario.RunReplicates(scenario.Config{Parallel: workers}, 8, func(rep int) (outcome, error) {
		seed := scenario.ReplicateSeed(42, rep)
		in, err := scenario.Build(scenario.Spec{
			Seed:   seed,
			Attack: &scenario.Attack{Kind: scenario.DoubleSidedFlush},
		})
		if err != nil {
			return outcome{}, err
		}
		if err := in.RunFor(8 * time.Millisecond); err != nil {
			return outcome{}, err
		}
		return outcome{
			Seed:      seed,
			Accesses:  in.Hammer.AggressorAccesses(),
			FlipCount: in.Machine.Mem.DRAM.FlipCount(),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRunManyParallelismInvariant(t *testing.T) {
	serial := replicateJSON(t, 1)
	parallel := replicateJSON(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("RunReplicates output depends on parallelism:\n1 worker: %s\n8 workers: %s",
			serial, parallel)
	}
}
