package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// checkViewOps compares the ops a test is about to commit on s against the
// next ops of ref, a copy of the same program stepped only through Next.
func checkViewOps(t testing.TB, step int, ops []machine.Op, ref *Synthetic) {
	t.Helper()
	for i, op := range ops {
		if want := ref.Next(); op != want {
			t.Fatalf("step %d, op %d: committed %+v, pure-Next stream has %+v", step, i, op, want)
		}
	}
}

// TestSyntheticViewsStayBounded drives the batch interface the way the
// machine does — fixed-size views executed only partway — mixed with per-op
// Next calls. The pending buffer must never outgrow one view, and the
// committed stream must be exactly the pure-Next stream, through OpDone.
func TestSyntheticViewsStayBounded(t *testing.T) {
	const (
		max    = 256
		cycles = 100_000
	)
	p, _ := ByName("astar") // bursts and a sliding region
	s := mustNew(t, p).WithOpLimit(3_000_000)
	ref := mustNew(t, p).WithOpLimit(3_000_000)
	rng := sim.NewRand(11)
	sawDone := false
	for step := 0; step < cycles; step++ {
		if rng.Intn(8) == 0 {
			checkViewOps(t, step, []machine.Op{s.Next()}, ref)
		} else {
			view := s.NextRun(max)
			if len(view) == 0 || len(view) > max {
				t.Fatalf("step %d: view of %d ops, want 1..%d", step, len(view), max)
			}
			if last := view[len(view)-1]; len(view) < max && last.Kind != machine.OpDone {
				t.Fatalf("step %d: short view of %d ops not ended by OpDone", step, len(view))
			}
			sawDone = sawDone || view[0].Kind == machine.OpDone
			k := rng.Intn(len(view) + 1)
			checkViewOps(t, step, view[:k], ref)
			s.Advance(k)
		}
		if c := cap(s.pending); c > max {
			t.Fatalf("step %d: cap(pending) = %d, want <= %d", step, c, max)
		}
		if s.MemOps() != ref.MemOps() {
			t.Fatalf("step %d: MemOps() = %d, pure-Next reference has %d", step, s.MemOps(), ref.MemOps())
		}
	}
	if !sawDone {
		t.Fatal("op limit never reached; OpDone termination went untested")
	}
}

// assertRunAllocFree checks that advancing a warmed machine allocates nothing.
// AllocsPerRun integer-divides mallocs by runs, so a loop that allocates a
// growing buffer only now and then still reads 0; the TotalAlloc delta over
// the same loop catches that.
func assertRunAllocFree(t *testing.T, m *machine.Machine) {
	t.Helper()
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
}

// TestSyntheticSteadyStateAllocs pins the allocation-free steady state of a
// real SPEC program on the batched path and the per-op path.
func TestSyntheticSteadyStateAllocs(t *testing.T) {
	for _, batchCap := range []int{0, 1} {
		t.Run(fmt.Sprintf("BatchCap=%d", batchCap), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.BatchCap = batchCap
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := ByName("mcf")
			if _, err := m.Spawn(0, mustNew(t, p)); err != nil {
				t.Fatal(err)
			}
			assertRunAllocFree(t, m)
		})
	}
}
