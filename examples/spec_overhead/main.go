// SPEC-like workloads under ANVIL vs the doubled-refresh-rate mitigation
// (Figure 3): run a fixed amount of work per benchmark under each
// configuration and compare completion times against the unprotected 64 ms
// machine. Each configuration is one scenario.Spec; the unprotected /
// ANVIL / 2x-refresh triples for the five benchmarks fan out across
// scenario.RunReplicates' worker pool.
package main

import (
	"fmt"
	"log"

	"repro/internal/report"
	"repro/internal/scenario"
)

// measure runs one benchmark for `ops` memory operations under a defense
// and returns the completion time in cycles.
func measure(name string, ops uint64, def scenario.DefenseKind, refreshScale int) (uint64, error) {
	in, err := scenario.Run(scenario.Spec{
		Workloads:    []scenario.Workload{{Name: name, OpLimit: ops}},
		Defense:      def,
		RefreshScale: refreshScale,
	})
	if err != nil {
		return 0, err
	}
	return uint64(in.Machine.Cores[0].Now), nil
}

func main() {
	log.SetFlags(0)
	// A representative subset keeps the example quick; cmd/tables -only
	// figure3 runs the full suite.
	names := []string{"mcf", "libquantum", "gcc", "h264ref", "sjeng"}
	const ops = 400_000

	type ratios struct{ anvil, dbl float64 }
	rows, err := scenario.RunReplicates(scenario.Config{}, len(names), func(rep int) (ratios, error) {
		base, err := measure(names[rep], ops, scenario.NoDefense, 1)
		if err != nil {
			return ratios{}, err
		}
		anv, err := measure(names[rep], ops, scenario.ANVILBaseline, 1)
		if err != nil {
			return ratios{}, err
		}
		dbl, err := measure(names[rep], ops, scenario.NoDefense, 2)
		if err != nil {
			return ratios{}, err
		}
		return ratios{
			anvil: float64(anv) / float64(base),
			dbl:   float64(dbl) / float64(base),
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	t := report.New("Normalized execution time (1.0 = unprotected, 64ms refresh)",
		"benchmark", "ANVIL", "2x refresh")
	var sumA, sumD float64
	for i, r := range rows {
		sumA += r.anvil
		sumD += r.dbl
		t.AddStrings(names[i], fmt.Sprintf("%.4f", r.anvil), fmt.Sprintf("%.4f", r.dbl))
	}
	t.AddStrings("mean",
		fmt.Sprintf("%.4f", sumA/float64(len(names))),
		fmt.Sprintf("%.4f", sumD/float64(len(names))))
	fmt.Println(t)
	fmt.Println("memory-intensive benchmarks pay for both protections; ANVIL stays ~1-3%")
	fmt.Println("while shielding against attacks that beat the 32ms refresh window outright.")
}
