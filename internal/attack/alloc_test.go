package attack

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestDoubleSidedFlushSteadyStateAllocs pins the allocation-free steady state
// of a real hammer loop on the batched path and the per-op path. AllocsPerRun
// integer-divides mallocs by runs, so a loop that allocates a growing buffer
// only now and then still reads 0; the TotalAlloc delta over the same loop
// catches that.
func TestDoubleSidedFlushSteadyStateAllocs(t *testing.T) {
	for _, batchCap := range []int{0, 1} {
		t.Run(fmt.Sprintf("BatchCap=%d", batchCap), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.BatchCap = batchCap
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := NewDoubleSidedFlush(baseOptions(m))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Spawn(0, a); err != nil {
				t.Fatal(err)
			}
			if err := m.RunFor(1 << 20); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(200, func() {
				if err := m.RunFor(1 << 14); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			if allocs != 0 {
				t.Errorf("steady-state Run allocates %.1f times per run, want 0", allocs)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
				t.Errorf("steady-state Run allocated %d bytes over 201 runs, want < 64 KiB", d)
			}
		})
	}
}
