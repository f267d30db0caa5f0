package repro_test

// The benchmark suite enumerates the experiment registry: every table and
// figure of the paper's evaluation regenerates under
//
//	go test -bench=Experiments -benchtime=1x -benchmem
//
// with each experiment's headline quantities (ms-to-flip, accesses,
// detection latency, refresh rates, normalized execution times) reported as
// custom metrics straight from its registered Result. The quick variants
// (-short) shrink run lengths. BenchmarkTable1Sweep measures the parallel
// seed-sharded runner: the same 16-seed Table 1 sweep at 1 worker and at 8,
// reporting the wall-clock speedup (the merged results are byte-identical
// by construction — see scenario.RunReplicatesSweep).

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func cfg(b *testing.B) scenario.Config {
	return scenario.Config{Quick: testing.Short()}
}

// BenchmarkExperiments regenerates every registered experiment by name.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range scenario.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(cfg(b))
				if err != nil {
					b.Fatal(err)
				}
				if m, ok := res.(scenario.Metricer); ok {
					for _, met := range m.Metrics() {
						b.ReportMetric(met.Value, met.Name)
					}
				}
				b.Log("\n" + res.Render())
			}
		})
	}
}

// BenchmarkTable1Sweep runs the 16-seed Table 1 sweep serially and with an
// 8-worker pool, reporting both wall-clock times and the speedup. On a
// machine with >=8 cores the pool delivers near-linear scaling because each
// replicate owns its machine; on fewer cores the speedup degrades towards
// 1x but the merged results stay byte-identical.
func BenchmarkTable1Sweep(b *testing.B) {
	sweep := func(workers int) time.Duration {
		c := scenario.Config{Quick: testing.Short(), Parallel: workers}
		start := time.Now()
		if _, err := experiments.Table1Sweep(c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		serial := sweep(1)
		parallel := sweep(8)
		b.ReportMetric(serial.Seconds(), "serial-s")
		b.ReportMetric(parallel.Seconds(), "parallel8-s")
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-8w")
	}
}
