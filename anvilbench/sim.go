package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// simWorkloads split the registry between workloads that run experiments
// in-process. Every registered experiment belongs to exactly one of them
// (checked by TestWorkloadsCoverRegistry).
var simWorkloads = map[string][]string{
	// Hammer programs: cache, vm, dram, pmu and ANVIL stage 2 do the work.
	"attack": {"table1", "table1-sweep", "figure1", "section21", "section22",
		"table3", "section45", "defenses", "degraded-sampling", "fault-matrix"},
	// Synthetic SPEC profiles under ANVIL, no attacker: the workload
	// generators and the Go runtime do much of the work.
	"benign": {"table4", "figure3"},
	// The same profiles under the light and heavy detector configurations.
	"benign-configs": {"table5", "figure4"},
}

// simWorkers is the sweep worker pool: at most nproc.
func simWorkers() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// runSim runs the named experiments in quick mode at the workload seed,
// whole passes over the list until the next pass would overrun the run
// length (always at least one pass), and verifies every output.
func runSim(e *env, names []string, r *result, win *window, tr *tracer) error {
	exps := make([]scenario.Experiment, len(names))
	for i, n := range names {
		x, ok := scenario.Find(n)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", n)
		}
		exps[i] = x
	}
	probes, err := probeInit(setupProbes)
	if err != nil {
		return fmt.Errorf("set-up probe: %w", err)
	}
	r.set("setup_s", median(probes), len(probes))
	workers := simWorkers()
	r.note("sweep workers %d, quick mode, seed %d", workers, e.seed)

	firstJSON := map[string][]byte{}
	wall := map[string]float64{}
	var reps int64
	if err := win.begin(); err != nil {
		return err
	}
	budget := time.Duration(e.seconds) * time.Second
	passes := 0
	for last := time.Duration(0); passes == 0 || time.Since(win.start)+last <= budget; passes++ {
		passStart := time.Now()
		for _, x := range exps {
			var done atomic.Int64
			sp := tr.start("scenario.Experiment.Run", x.Name, 0)
			cfg := scenario.Config{
				Quick:    true,
				Seed:     e.seed,
				Parallel: workers,
				OnProgress: func(scenario.ProgressEvent) {
					done.Add(1)
					tr.start("scenario.Config.OnProgress", x.Name, sp.id()).finish()
				},
			}
			t := time.Now()
			res, err := x.Run(cfg)
			wall[x.Name] += time.Since(t).Seconds()
			sp.finish()
			n := done.Load()
			if n == 0 && x.Reps == nil {
				n = 1 // a monolithic experiment is one top-level replicate
			}
			if err != nil {
				est := int64(x.EstimatedReps(cfg))
				r.attempted += est
				r.failed += est
				r.problem("%s: %v", x.Name, err)
				continue
			}
			r.attempted += n
			reps += n
			data, err := experimentJSON(res)
			switch {
			case err != nil:
				r.failed += n
				r.problem("%s: %v", x.Name, err)
			case passes == 0:
				firstJSON[x.Name] = data
				if e.seed == e.digests.Seed {
					if err := checkDigest(x.Name, e.digests.Experiments[x.Name], data); err != nil {
						r.failed += n
						r.problem("%v", err)
					}
				}
				if err := addSimCounts(r.simCounts, data); err != nil {
					r.problem("%s: counting: %v", x.Name, err)
				}
			case !bytes.Equal(data, firstJSON[x.Name]):
				r.failed += n
				r.problem("%s: pass %d output differs from pass 1", x.Name, passes+1)
			}
		}
		last = time.Since(passStart)
	}
	win.end()

	r.set("replicates_per_s", float64(reps)/win.seconds(), 0)
	r.set("scenario.replicates", float64(reps), 0)
	for name, s := range wall {
		r.set("exp."+name+".wall_s", s/float64(passes), passes)
	}
	r.note("%d pass(es) over %d experiments in %.2fs", passes, len(exps), win.seconds())
	return nil
}
