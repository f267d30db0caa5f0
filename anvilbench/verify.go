package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// digestFile pins the outputs at the recorded seed: SHA-256 of each
// experiment's JSON, and of the service artifacts of the specs the service
// workload submits at that seed. Regenerate with -update-digests, and review
// the diff: a changed digest means a changed model.
//
//go:embed digests.json
var digestFile []byte

type digests struct {
	Seed         uint64            `json:"seed"`
	Experiments  map[string]string `json:"experiments"`
	ServiceHits  []string          `json:"service_hits"`
	ServiceFresh []string          `json:"service_fresh"`
}

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestFile, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func sum256(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkDigest compares output bytes with a pinned digest; an empty pin (no
// digest recorded for this output) passes.
func checkDigest(what, want string, got []byte) error {
	if want == "" {
		return nil
	}
	if h := sum256(got); h != want {
		return fmt.Errorf("%s: digest %s, pinned %s", what, h[:16], want[:min(16, len(want))])
	}
	return nil
}

// experimentJSON marshals an experiment result and applies the registry's
// shape checks: non-empty JSON data, finite headline metrics, a rendering.
func experimentJSON(res scenario.Result) ([]byte, error) {
	if res == nil {
		return nil, errors.New("nil result")
	}
	data, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	if err := checkData(data); err != nil {
		return nil, err
	}
	if m, ok := res.(scenario.Metricer); ok {
		if err := checkMetrics(m.Metrics()); err != nil {
			return nil, err
		}
	}
	if strings.TrimSpace(res.Render()) == "" {
		return nil, errors.New("empty rendering")
	}
	return data, nil
}

// checkArtifact applies the same shape checks to a served artifact.
func checkArtifact(raw []byte) (sweepd.Artifact, error) {
	var a sweepd.Artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return a, fmt.Errorf("artifact does not decode: %w", err)
	}
	if err := checkData(a.Data); err != nil {
		return a, err
	}
	return a, checkMetrics(a.Metrics)
}

func checkData(data []byte) error {
	if len(data) == 0 || string(data) == "null" || !json.Valid(data) {
		return errors.New("empty or invalid JSON data")
	}
	return nil
}

func checkMetrics(ms []scenario.Metric) error {
	for _, m := range ms {
		if m.Name == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("bad headline metric %q=%v", m.Name, m.Value)
		}
	}
	return nil
}

// countKeys maps the integer fields experiment JSON already carries to the
// simulated counts they add up to.
var countKeys = map[string]string{
	"flips":             "dram.flips",
	"bit_flips":         "dram.flips",
	"total_bit_flips":   "dram.flips",
	"baseline_flips":    "dram.flips",
	"activations":       "dram.activations",
	"detections":        "anvil.detections",
	"refreshes":         "anvil.refreshes",
	"defense_refreshes": "anvil.refreshes",
	"samples_taken":     "pmu.samples",
}

// simCountNames lists the simulated counts in report order.
var simCountNames = []string{"dram.flips", "dram.activations", "anvil.detections", "anvil.refreshes", "pmu.samples"}

// addSimCounts sums the count fields of one experiment's JSON into into.
func addSimCounts(into map[string]int64, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	var walk func(any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if name, ok := countKeys[k]; ok {
					if n, ok := e.(json.Number); ok {
						if i, err := n.Int64(); err == nil {
							into[name] += i
						}
					}
				}
				walk(e)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(v)
	return nil
}

// freshDigests is how many of the closed-loop client's jobs are pinned at
// the recorded seed; jobs past it get shape checks only.
const freshDigests = 48

// updateDigests recomputes every pinned output in-process at seed and
// writes the digest file. Served artifacts equal MarshalArtifact of the
// in-process result by the service's byte-identity contract.
func updateDigests(seed uint64, path string) error {
	d := digests{Seed: seed, Experiments: map[string]string{}}
	cfg := scenario.Config{Quick: true, Seed: seed, Parallel: simWorkers()}
	for _, x := range scenario.Experiments() {
		res, err := x.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		data, err := experimentJSON(res)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		d.Experiments[x.Name] = sum256(data)
	}
	artifact := func(spec sweepd.JobSpec) (string, error) {
		x, _ := scenario.Find(spec.Experiment)
		res, err := x.Run(scenario.Config{Quick: spec.Quick, Seed: spec.Seed, Parallel: simWorkers()})
		if err != nil {
			return "", err
		}
		raw, err := sweepd.MarshalArtifact(res)
		return sum256(raw), err
	}
	for k := 0; k < hitSpecs; k++ {
		h, err := artifact(hitSpec(seed, k))
		if err != nil {
			return err
		}
		d.ServiceHits = append(d.ServiceHits, h)
	}
	for i := 0; i < freshDigests; i++ {
		h, err := artifact(freshSpec(seed, i))
		if err != nil {
			return err
		}
		d.ServiceFresh = append(d.ServiceFresh, h)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
