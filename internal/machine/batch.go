package machine

import (
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Batch-stepped execution. The per-op loop pays interpretive dispatch on
// every operation: a schedule scan, a timer-heap check, a virtual Next()
// call, and a full walk through System.Access. The batched core instead
// plans an *epoch* — the span up to the next architectural event horizon,
// min(next kernel timer, sibling core's clock, next DRAM refresh slot, run
// deadline) — and lets the earliest core execute a pre-generated run of
// operations to that horizon in a tight loop. Nothing observable can happen
// inside an epoch (no timer is due, no other core is earlier, and the PMU
// overflow budget is re-priced inside memsys.AccessRun), so the output is
// byte-identical to per-op stepping; Config.BatchCap=1 forces the per-op
// path for A/B bisection.

// DefaultBatchCap is the view size requested from a BatchProgram when
// Config.BatchCap is zero.
const DefaultBatchCap = 256

// minEpochSpan is the shortest horizon gap worth planning an epoch for; a
// tighter horizon (sibling cores in near-lockstep) runs per-op instead. Purely
// a performance cutoff — both paths produce identical output.
const minEpochSpan = 64

// BatchProgram is optionally implemented by Programs that can expose a run
// of upcoming operations without committing to them, enabling batched
// execution. Programs that observe machine state between operations
// (Proc.LastLatency, Proc.Time, ...) to decide their next op must NOT
// implement it: a view has to be a pure function of the program's own
// committed state.
type BatchProgram interface {
	Program
	// NextRun returns a view of up to max upcoming operations, in exactly
	// the order Next would produce them. It commits nothing: the machine may
	// execute any prefix (including none) and report it via Advance, and
	// operations not advanced past must be re-served by later NextRun or
	// Next calls. The returned slice is only valid until the next method
	// call on the program. An implementation that generates ahead keeps at
	// most max uncommitted operations and must not retain the committed
	// prefix: the machine executes most views only partway, so a buffer
	// that keeps it grows with every operation of the run.
	NextRun(max int) []Op
	// Advance commits the first n operations of the most recent NextRun
	// view as executed.
	Advance(n int)
}

// runCore advances c — which the caller established as the earliest active
// core — by one epoch (batch-capable programs) or one operation (everything
// else), returning the error left on c, if any.
func (m *Machine) runCore(c *Core, until sim.Cycles) error {
	bp := c.bprog
	if bp == nil {
		return m.stepCore(c)
	}
	horizon := until
	for _, cc := range m.Cores {
		if cc != c && !cc.Done && cc.Now < horizon {
			horizon = cc.Now
		}
	}
	kern := m.Kernel
	if len(kern.timers) > 0 && kern.timers[0].due < horizon {
		horizon = kern.timers[0].due
	}
	if horizon < c.Now+minEpochSpan {
		// The epoch is too short to amortise planning (typically a sibling
		// core sharing the clock, sometimes an imminent timer): interleave
		// through the per-op path, which re-evaluates the schedule op by op
		// and also skips the refresh-slot computation. Per-op stepping is the
		// reference semantics, so bailing here is always output-identical.
		return m.stepCore(c)
	}
	kern.fireDue(c.Now)
	gen := kern.gen
	if rs := m.Mem.DRAM.NextRefreshSlot(c.Now); rs < horizon {
		horizon = rs
	}
	if horizon <= c.Now {
		return m.stepCore(c)
	}
	for c.Now < horizon && !c.Done && kern.gen == gen {
		m.current = c
		ops := bp.NextRun(m.batchCap)
		m.current = nil
		n := m.execView(c, ops, horizon, gen)
		if n == 0 {
			// Heterogeneous head (OpDone, invalid op, translation fault,
			// empty view): one per-op step reproduces the bookkeeping and
			// error wrapping exactly, ending the program if need be.
			return m.stepCore(c)
		}
		bp.Advance(n)
	}
	return c.Err
}

// execView executes a prefix of ops on c and returns how many operations
// completed. It stops — always at an operation boundary — at the horizon, on
// a kernel-generation change (a handler armed an earlier event), or before
// the first operation the batched path cannot express (OpDone, invalid
// kinds, translation faults).
func (m *Machine) execView(c *Core, ops []Op, horizon sim.Cycles, gen uint64) int {
	kern := m.Kernel
	i := 0
	for i < len(ops) && c.Now < horizon && kern.gen == gen {
		switch ops[i].Kind {
		case OpCompute:
			c.Stats.Ops++
			c.Stats.ComputeCycles += ops[i].Cycles
			c.Now += ops[i].Cycles
			i++
		case OpLoad, OpStore, OpFlush:
			reqs := c.reqs[:0]
			// One-entry page memo: nothing can remap between gather
			// iterations, so a VA on the same page as the previous op reuses
			// its frame. memoPage starts unaligned, so it never matches.
			memoPage, memoFrame := uint64(1), uint64(0)
		gather:
			for j := i; j < len(ops); j++ {
				var kind memsys.ReqKind
				switch ops[j].Kind {
				case OpLoad:
					kind = memsys.ReqLoad
				case OpStore:
					kind = memsys.ReqStore
				case OpFlush:
					kind = memsys.ReqFlush
				default:
					break gather
				}
				va := ops[j].VA
				var pa uint64
				if page := va &^ uint64(vm.PageSize-1); page == memoPage {
					pa = memoFrame | va&uint64(vm.PageSize-1)
				} else {
					var err error
					pa, err = c.Proc.AS.Translate(va)
					if err != nil {
						// Leave the faulting op for the per-op path, which
						// reports it with exact wrapping.
						break gather
					}
					memoPage = page
					memoFrame = pa &^ uint64(vm.PageSize-1)
				}
				reqs = append(reqs, memsys.Req{VA: va, PA: pa, Kind: kind})
			}
			c.reqs = reqs
			if len(reqs) == 0 {
				return i
			}
			m.current = c
			rr := m.Mem.AccessRun(reqs, c.Proc.ID, c.ID, &c.Now, horizon, &kern.gen)
			m.current = nil
			c.Stats.Ops += uint64(rr.Executed)
			c.Stats.Loads += rr.Loads
			c.Stats.Stores += rr.Stores
			c.Stats.Flushes += rr.Flushes
			c.Stats.MemCycles += rr.MemCycles
			if rr.HadMem {
				c.Proc.LastLatency = rr.LastLatency
			}
			i += rr.Executed
			if rr.Executed < len(reqs) {
				return i
			}
		default:
			return i
		}
	}
	return i
}
