package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepResult is a representative result shape: floats, ints and nested
// counters, the mix the experiment result types use. It must round-trip
// through JSON bit-exactly (Go marshals float64 shortest-round-trip).
type sweepResult struct {
	Rep    int     `json:"rep"`
	Value  float64 `json:"value"`
	Cycles uint64  `json:"cycles"`
}

func makeResult(base uint64, rep int) sweepResult {
	seed := ReplicateSeed(base, rep)
	return sweepResult{
		Rep:    rep,
		Value:  1 / float64(seed%1000+3),
		Cycles: seed,
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) {
		t.Error("nil is transient")
	}
	if Transient(errors.New("boom")) {
		t.Error("plain error is transient")
	}
	if !Transient(MarkTransient(errors.New("boom"))) {
		t.Error("MarkTransient did not mark")
	}
	if !Transient(context.DeadlineExceeded) {
		t.Error("deadline exceeded is not transient")
	}
	if Transient(context.Canceled) {
		t.Error("cancellation must never be transient")
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	// Marking twice must not stack wrappers.
	once := MarkTransient(errors.New("x"))
	if MarkTransient(once) != once {
		t.Error("MarkTransient re-wrapped an already-transient error")
	}
	// The underlying error stays visible through the marker.
	base := os.ErrNotExist
	if !errors.Is(MarkTransient(fmt.Errorf("wrap: %w", base)), base) {
		t.Error("marker hides the underlying error")
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	const base, seed = 80 * time.Millisecond, 7
	for rep := 0; rep < 4; rep++ {
		for attempt := 1; attempt <= 5; attempt++ {
			d1 := RetryDelay(base, seed, rep, attempt)
			d2 := RetryDelay(base, seed, rep, attempt)
			if d1 != d2 {
				t.Fatalf("rep %d attempt %d: delay not deterministic (%v != %v)", rep, attempt, d1, d2)
			}
			exp := base << (attempt - 1)
			if d1 < exp/2 || d1 > exp {
				t.Fatalf("rep %d attempt %d: delay %v outside [%v, %v]", rep, attempt, d1, exp/2, exp)
			}
		}
	}
	// Different replicates draw from different jitter substreams.
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if RetryDelay(base, seed, 0, attempt) == RetryDelay(base, seed, 1, attempt) {
			same++
		}
	}
	if same == 8 {
		t.Error("replicates 0 and 1 share an identical retry schedule")
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls [4]atomic.Int32
	cfg := Config{Parallel: 2, MaxRetries: 3}
	out, status, err := runSweep(cfg, 4, nil, time.Microsecond, func(_ context.Context, rep int) (int, error) {
		n := calls[rep].Add(1)
		// Replicate 2 fails transiently twice before succeeding.
		if rep == 2 && n <= 2 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return rep * 10, nil
	})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if want := []int{0, 10, 20, 30}; !reflect.DeepEqual(out, want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	if status.Retries != 2 {
		t.Errorf("status.Retries = %d, want 2", status.Retries)
	}
	if got := calls[2].Load(); got != 3 {
		t.Errorf("replicate 2 ran %d times, want 3", got)
	}
}

func TestRetryExhaustionReportsAttempts(t *testing.T) {
	var calls atomic.Int32
	cfg := Config{Parallel: 1, MaxRetries: 2}
	_, status, err := runSweep(cfg, 1, nil, time.Microsecond, func(_ context.Context, _ int) (int, error) {
		calls.Add(1)
		return 0, MarkTransient(errors.New("always down"))
	})
	if err == nil {
		t.Fatal("exhausted retries returned nil error")
	}
	var re *ReplicateError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *ReplicateError", err)
	}
	if re.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (1 + 2 retries)", re.Attempts)
	}
	if calls.Load() != 3 {
		t.Errorf("fn ran %d times, want 3", calls.Load())
	}
	if status.Retries != 2 {
		t.Errorf("status.Retries = %d, want 2", status.Retries)
	}
}

func TestNonTransientErrorIsNotRetried(t *testing.T) {
	var calls atomic.Int32
	cfg := Config{Parallel: 1, MaxRetries: 5}
	_, status, err := runSweep(cfg, 1, nil, time.Microsecond, func(_ context.Context, _ int) (int, error) {
		calls.Add(1)
		return 0, errors.New("deterministic bug")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Errorf("non-transient error retried: fn ran %d times", calls.Load())
	}
	if status.Retries != 0 {
		t.Errorf("status.Retries = %d, want 0", status.Retries)
	}
}

func TestBudgetReplicatesTruncates(t *testing.T) {
	cfg := Config{Parallel: 1, Budget: Budget{Replicates: 3}}
	out, status, err := runSweep(cfg, 8, nil, DefaultRetryBackoff, func(_ context.Context, rep int) (int, error) {
		return rep + 1, nil
	})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if !status.Truncated {
		t.Fatal("sweep not truncated")
	}
	if want := []int{3, 4, 5, 6, 7}; !reflect.DeepEqual(status.Dropped, want) {
		t.Errorf("Dropped = %v, want %v", status.Dropped, want)
	}
	if status.DroppedRange() != "3-7" {
		t.Errorf("DroppedRange = %q, want 3-7", status.DroppedRange())
	}
	// Completed slots are populated, dropped slots are zero values.
	if !reflect.DeepEqual(out[:3], []int{1, 2, 3}) || out[3] != 0 || out[7] != 0 {
		t.Errorf("out = %v", out)
	}
}

func TestBudgetWallClockTruncates(t *testing.T) {
	cfg := Config{Parallel: 1, Budget: Budget{WallClock: 30 * time.Millisecond}}
	_, status, err := runSweep(cfg, 1000, nil, DefaultRetryBackoff, func(_ context.Context, rep int) (int, error) {
		time.Sleep(5 * time.Millisecond)
		return rep, nil
	})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if !status.Truncated {
		t.Fatal("wall-clock budget did not truncate")
	}
	if len(status.Dropped) == 0 || len(status.Dropped) == 1000 {
		t.Errorf("Dropped %d of 1000 replicates", len(status.Dropped))
	}
}

// The name predates RunReplicates, the entry point this test now drives.
func TestTruncatedErrorSurfacesThroughRunManyCtx(t *testing.T) {
	cfg := Config{Parallel: 1, Budget: Budget{Replicates: 2}}
	out, err := RunReplicates(cfg, 5, func(rep int) (int, error) {
		return rep, nil
	})
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("error %T, want *TruncatedError", err)
	}
	if te.Status.DroppedRange() != "2-4" {
		t.Errorf("DroppedRange = %q", te.Status.DroppedRange())
	}
	if len(out) != 5 || out[0] != 0 || out[1] != 1 {
		t.Errorf("partial results lost: %v", out)
	}
}

// TestSweepErrorSingleEntryPerReplicate is the regression test for the
// double-count bug class: a replicate that fails after the sweep's context
// is cancelled — here via per-replicate timeouts racing a mid-sweep cancel
// under keep-going — must contribute exactly one failure entry, and the
// entries must come back in ascending replicate order.
func TestSweepErrorSingleEntryPerReplicate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 24
	cfg := Config{Parallel: 4, KeepGoing: true, Timeout: 5 * time.Millisecond, MaxRetries: 1, Ctx: ctx}
	started := make(chan struct{}, n)
	_, _, err := runSweep(cfg, n, nil, time.Millisecond, func(repCtx context.Context, rep int) (int, error) {
		started <- struct{}{}
		if rep == 2 {
			cancel() // mid-sweep cancellation races the timeouts
		}
		<-repCtx.Done() // every replicate dies by timeout or cancellation
		return 0, repCtx.Err()
	})
	if err == nil {
		t.Fatal("want a *SweepError")
	}
	se, ok := err.(*SweepError)
	if !ok {
		t.Fatalf("error %T, want *SweepError", err)
	}
	if se.Replicates != n {
		t.Errorf("Replicates = %d, want %d", se.Replicates, n)
	}
	if len(se.Failures) != n {
		t.Fatalf("%d failures for %d replicates", len(se.Failures), n)
	}
	seen := map[int]bool{}
	prev := -1
	for _, f := range se.Failures {
		if seen[f.Rep] {
			t.Fatalf("replicate %d double-counted", f.Rep)
		}
		seen[f.Rep] = true
		if f.Rep <= prev {
			t.Fatalf("failures out of replicate order: %d after %d", f.Rep, prev)
		}
		prev = f.Rep
		if !errors.Is(f.Err, context.Canceled) && !errors.Is(f.Err, context.DeadlineExceeded) {
			t.Errorf("replicate %d failed with %v, want cancellation or deadline", f.Rep, f.Err)
		}
	}
}

func testMeta(n int) SweepMeta {
	return SweepMeta{
		Sweep:      "unit",
		SpecHash:   HashSpec("sweep", "unit", 0, true, uint64(7), n),
		BaseSeed:   7,
		Replicates: n,
	}
}

func TestJournalResumeRoundTrip(t *testing.T) {
	const n = 6
	path := filepath.Join(t.TempDir(), "unit-0.jnl")
	meta := testMeta(n)

	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	var firstCalls atomic.Int32
	out1, status1, err := runSweep(Config{Parallel: 2}, n, j, DefaultRetryBackoff,
		func(_ context.Context, rep int) (sweepResult, error) {
			firstCalls.Add(1)
			return makeResult(meta.BaseSeed, rep), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if status1.Resumed != 0 || firstCalls.Load() != n {
		t.Fatalf("first run: resumed %d, ran %d", status1.Resumed, firstCalls.Load())
	}

	// Second run resumes everything: fn must not run at all, and the merged
	// results must be identical to the first run's.
	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	out2, status2, err := runSweep(Config{Parallel: 5, Resume: true}, n, j2, DefaultRetryBackoff,
		func(_ context.Context, rep int) (sweepResult, error) {
			t.Errorf("replicate %d re-ran on a fully-journaled sweep", rep)
			return sweepResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if status2.Resumed != n {
		t.Errorf("Resumed = %d, want %d", status2.Resumed, n)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("resumed results differ:\n%v\n%v", out1, out2)
	}
}

func TestJournalTruncateThenResumeByteIdentical(t *testing.T) {
	const n = 9
	meta := testMeta(n)
	fn := func(_ context.Context, rep int) (sweepResult, error) {
		return makeResult(meta.BaseSeed, rep), nil
	}

	// Golden: one uninterrupted serial run, no journal.
	golden, _, err := runSweep(Config{Parallel: 1}, n, nil, DefaultRetryBackoff, fn)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: a replicate budget cuts the sweep after 4.
	path := filepath.Join(t.TempDir(), "unit-0.jnl")
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	_, status, err := runSweep(Config{Parallel: 2, Budget: Budget{Replicates: 4}}, n, j,
		DefaultRetryBackoff, fn)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !status.Truncated || len(status.Dropped) != n-4 {
		t.Fatalf("truncation status = %+v", status)
	}

	// Resume at a different worker count: merged output must equal golden.
	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, status2, err := runSweep(Config{Parallel: 7, Resume: true}, n, j2,
		DefaultRetryBackoff, fn)
	if err != nil {
		t.Fatal(err)
	}
	if status2.Resumed != 4 {
		t.Errorf("Resumed = %d, want 4", status2.Resumed)
	}
	if !reflect.DeepEqual(golden, resumed) {
		t.Errorf("resumed sweep differs from uninterrupted run:\n%v\n%v", golden, resumed)
	}
}

func TestJournalRefusesMismatchedMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit-0.jnl")
	meta := testMeta(4)
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, []byte(`{"rep":0}`), 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := meta
	other.SpecHash = HashSpec("sweep", "unit", 0, false, uint64(7), 4) // quick flipped
	if _, err := OpenJournal(path, other, true); err == nil {
		t.Fatal("resume accepted a journal with a different spec hash")
	} else if got := err.Error(); !strings.Contains(got, "refusing to resume") {
		t.Errorf("mismatch error %q does not explain the refusal", got)
	}
}

func TestJournalRefusesExistingWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit-0.jnl")
	meta := testMeta(4)
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, meta, false); err == nil {
		t.Fatal("re-open without resume succeeded on an existing journal")
	}
}

func TestRunReplicatesSweepJournalsUnderConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Quick: true, Seed: 7, Parallel: 2, Sweep: "unit"}.WithJournal(dir, false)
	const n = 5
	out1, status1, err := RunReplicatesSweep(cfg, n, func(rep int) (sweepResult, error) {
		return makeResult(cfg.Seed, rep), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status1.Resumed != 0 {
		t.Fatalf("fresh run resumed %d", status1.Resumed)
	}
	if _, err := os.Stat(filepath.Join(dir, "unit-0.jnl")); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}

	// Same Config with resume: everything merges from the journal.
	cfg2 := Config{Quick: true, Seed: 7, Parallel: 4, Sweep: "unit"}.WithJournal(dir, true)
	out2, status2, err := RunReplicatesSweep(cfg2, n, func(rep int) (sweepResult, error) {
		t.Errorf("replicate %d re-ran", rep)
		return sweepResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status2.Resumed != n {
		t.Errorf("Resumed = %d, want %d", status2.Resumed, n)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("journaled Config resume differs")
	}
}

// TestProgressEventsCoverEverySlot asserts the OnProgress stream: one event
// per replicate, Completed strictly climbing to Total, no event influencing
// results.
func TestProgressEventsCoverEverySlot(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var events []ProgressEvent
	out, status, err := runSweep(
		Config{Parallel: 3, OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}},
		n, nil, DefaultRetryBackoff,
		func(_ context.Context, rep int) (sweepResult, error) {
			return makeResult(11, rep), nil
		})
	if err != nil || status.Resumed != 0 {
		t.Fatalf("sweep: err=%v status=%+v", err, status)
	}
	if len(out) != n || len(events) != n {
		t.Fatalf("got %d results, %d events, want %d of each", len(out), len(events), n)
	}
	seenRep := map[int]bool{}
	seenCompleted := map[int]bool{}
	for _, ev := range events {
		if ev.Resumed {
			t.Errorf("event for replicate %d marked resumed on a fresh sweep", ev.Rep)
		}
		if ev.Total != n {
			t.Errorf("event Total = %d, want %d", ev.Total, n)
		}
		if seenRep[ev.Rep] {
			t.Errorf("replicate %d reported twice", ev.Rep)
		}
		seenRep[ev.Rep] = true
		seenCompleted[ev.Completed] = true
	}
	for c := 1; c <= n; c++ {
		if !seenCompleted[c] {
			t.Errorf("no event carried Completed = %d", c)
		}
	}
}

// TestProgressEventsMarkResumedReplicates asserts that a resumed sweep
// reports journal-merged replicates as Resumed events (before any worker
// runs) and freshly-computed ones as live events, still covering every slot.
func TestProgressEventsMarkResumedReplicates(t *testing.T) {
	const n = 6
	path := filepath.Join(t.TempDir(), "progress-0.jnl")
	meta := testMeta(n)
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	// First run journals only replicates 0 and 1 (replicate budget 2).
	_, status, err := runSweep(Config{Parallel: 1, Budget: Budget{Replicates: 2}}, n, j,
		DefaultRetryBackoff,
		func(_ context.Context, rep int) (sweepResult, error) {
			return makeResult(meta.BaseSeed, rep), nil
		})
	if err != nil || !status.Truncated {
		t.Fatalf("truncated run: err=%v status=%+v", err, status)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var mu sync.Mutex
	var resumed, fresh []int
	_, status2, err := runSweep(
		Config{Parallel: 2, Resume: true, OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Resumed {
				resumed = append(resumed, ev.Rep)
			} else {
				fresh = append(fresh, ev.Rep)
			}
		}},
		n, j2, DefaultRetryBackoff,
		func(_ context.Context, rep int) (sweepResult, error) {
			return makeResult(meta.BaseSeed, rep), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if status2.Resumed != 2 {
		t.Fatalf("Resumed = %d, want 2", status2.Resumed)
	}
	if !reflect.DeepEqual(resumed, []int{0, 1}) {
		t.Errorf("resumed events = %v, want [0 1] in ascending order", resumed)
	}
	if len(fresh) != n-2 {
		t.Errorf("fresh events = %v, want the remaining %d replicates", fresh, n-2)
	}
}
