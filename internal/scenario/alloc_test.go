package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestANVILDetectorSteadyStateAllocs pins the allocation-free steady state of
// the ANVIL PMI/detector path — counter overflows, PEBS sampling, the
// detector's stage-1 and sample windows — under a real double-sided hammer,
// on the batched path and the per-op path. AllocsPerRun integer-divides
// mallocs by runs, so a loop that allocates a growing buffer only now and
// then still reads 0; the TotalAlloc delta over the same loop catches that.
func TestANVILDetectorSteadyStateAllocs(t *testing.T) {
	for _, batch := range []int{0, 1} {
		t.Run(fmt.Sprintf("StepBatch=%d", batch), func(t *testing.T) {
			in, err := Build(Spec{
				Attack:    &Attack{Kind: DoubleSidedFlush},
				Defense:   ANVILBaseline,
				StepBatch: batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := in.RunFor(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			st0 := in.Detector.Stats()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(200, func() {
				if err := in.RunFor(100 * time.Microsecond); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			st1 := in.Detector.Stats()
			if allocs != 0 {
				t.Errorf("steady-state RunFor allocates %.1f times per run, want 0", allocs)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
				t.Errorf("steady-state RunFor allocated %d bytes over 201 runs, want < 64 KiB", d)
			}
			if st1.SampleWindows <= st0.SampleWindows || st1.SamplesTaken <= st0.SamplesTaken {
				t.Errorf("detector idle during the measured loop: sample windows %d -> %d, samples %d -> %d",
					st0.SampleWindows, st1.SampleWindows, st0.SamplesTaken, st1.SamplesTaken)
			}
		})
	}
}
