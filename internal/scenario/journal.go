package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
)

// SweepMeta identifies the sweep a checkpoint journal belongs to. Resume
// refuses a journal whose meta does not match the running sweep exactly:
// merging replicates of a different spec would silently corrupt results.
type SweepMeta struct {
	// Sweep is the human-readable sweep name (the experiment name under
	// cmd/tables).
	Sweep string `json:"sweep"`
	// SpecHash fingerprints everything that determines replicate results
	// (see HashSpec); runner knobs that only change wall-clock behaviour —
	// workers, timeouts, budgets — are deliberately excluded so a sweep can
	// resume under different resources.
	SpecHash string `json:"spec_hash"`
	// BaseSeed is the sweep's root seed (replicates derive theirs via
	// ReplicateSeed).
	BaseSeed uint64 `json:"base_seed"`
	// Replicates is the sweep size.
	Replicates int `json:"replicates"`
}

// HashSpec derives a short stable hex fingerprint from the values that
// define a sweep's results. Values are rendered through %v with separators,
// so any comparable mix of names, flags and sizes hashes deterministically.
func HashSpec(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// journalRecord is one framed record of a sweep journal, JSON-encoded. Kind
// discriminates: "meta" (first record, sweep identity), "replicate" (one
// completed replicate: index, derived seed, retry count, full result JSON —
// fault counters ride inside the result), "truncated" (budget exhaustion
// marker naming the dropped replicates).
type journalRecord struct {
	Kind    string          `json:"kind"`
	Meta    *SweepMeta      `json:"meta,omitempty"`
	Rep     int             `json:"rep"`
	Seed    uint64          `json:"seed,omitempty"`
	Retries int             `json:"retries,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Dropped []int           `json:"dropped,omitempty"`
	Reason  string          `json:"reason,omitempty"`
}

// A Journal checkpoints a sweep: one record per completed replicate, so a
// killed sweep resumes from its last fsync batch instead of from zero. It is
// safe for concurrent use by the runner's workers.
type Journal struct {
	mu   sync.Mutex
	w    *journal.Writer
	meta SweepMeta
	path string
	// done holds recovered results by replicate index (first record wins;
	// results are deterministic, so duplicates are interchangeable anyway).
	done map[int]json.RawMessage
}

// OpenJournal opens the checkpoint journal at path for the sweep described
// by meta.
//
//   - No file: a fresh journal is created (with or without resume — so the
//     same command line works for the first run and every rerun).
//   - Existing file with resume: the journal is recovered (torn tail
//     truncated), its meta record is checked against meta — any mismatch
//     refuses with an error naming both sweeps — and its completed
//     replicates become available to the runner.
//   - Existing file without resume: refused, to keep a stale journal from
//     being silently appended to.
func OpenJournal(path string, meta SweepMeta, resume bool) (*Journal, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return createJournal(path, meta)
	} else if err != nil {
		return nil, err
	}
	if !resume {
		return nil, fmt.Errorf("scenario: journal %s already exists; resume it (cmd/tables -resume) or remove it to start over", path)
	}
	records, w, err := journal.Recover(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{w: w, meta: meta, path: path, done: map[int]json.RawMessage{}}
	if len(records) == 0 {
		// Created-then-killed before the meta record reached the file:
		// indistinguishable from fresh, so restart it.
		if err := j.appendRecord(journalRecord{Kind: "meta", Meta: &meta}); err != nil {
			w.Close()
			return nil, err
		}
		return j, nil
	}
	var first journalRecord
	if err := json.Unmarshal(records[0], &first); err != nil || first.Kind != "meta" || first.Meta == nil {
		w.Close()
		return nil, fmt.Errorf("scenario: journal %s does not start with a sweep meta record; refusing to resume", path)
	}
	if *first.Meta != meta {
		w.Close()
		return nil, fmt.Errorf(
			"scenario: journal %s records sweep %q (spec %s, seed %d, %d replicates) but the running sweep is %q (spec %s, seed %d, %d replicates); refusing to resume",
			path, first.Meta.Sweep, first.Meta.SpecHash, first.Meta.BaseSeed, first.Meta.Replicates,
			meta.Sweep, meta.SpecHash, meta.BaseSeed, meta.Replicates)
	}
	for _, raw := range records[1:] {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			w.Close()
			return nil, fmt.Errorf("scenario: journal %s holds an undecodable record: %w", path, err)
		}
		if rec.Kind != "replicate" || rec.Rep < 0 || rec.Rep >= meta.Replicates {
			continue // truncation markers and out-of-range records are informational
		}
		if _, dup := j.done[rec.Rep]; !dup {
			j.done[rec.Rep] = rec.Result
		}
	}
	return j, nil
}

// openSweepJournal opens (or resumes) the journal file for one sweep of a
// journaling Config, or returns (nil, nil) when the Config does not journal.
// Files are named <dir>/<sweep>-<seq>.jnl, where seq numbers the journaled
// sweeps of the experiment run in call order; the sweep's spec hash covers
// everything that determines replicate bytes (name, sequence, quick mode,
// seed, size) and deliberately excludes workers, timeouts and budgets, so a
// sweep resumes under different resources.
func openSweepJournal(cfg Config, n int) (*Journal, error) {
	if cfg.Journal == "" {
		return nil, nil
	}
	name := cfg.Sweep
	if name == "" {
		name = "sweep"
	}
	var seq uint64
	if cfg.sweepSeq != nil {
		seq = atomic.AddUint64(cfg.sweepSeq, 1) - 1
	}
	if err := os.MkdirAll(cfg.Journal, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: creating journal directory: %w", err)
	}
	path := filepath.Join(cfg.Journal, fmt.Sprintf("%s-%d.jnl", name, seq))
	meta := SweepMeta{
		Sweep:      name,
		SpecHash:   HashSpec("sweep", name, seq, cfg.Quick, cfg.Seed, n),
		BaseSeed:   cfg.Seed,
		Replicates: n,
	}
	return OpenJournal(path, meta, cfg.Resume)
}

// OpenFirstSweepJournal opens — creating or resuming — the checkpoint
// journal of the Config's first (seq-0) sweep, sized at n replicates. It is
// the coordinator half of distributed sharding: a Shardable experiment runs
// exactly one top-level sweep, so the seq-0 journal is the file a finalizing
// exp.Run(cfg) with Resume set will merge, and appending worker-uploaded
// replicate records here is indistinguishable from the sweep having computed
// them locally. Resume semantics are unconditional (an existing journal is
// recovered, a missing one created), because the coordinator may be
// restarted mid-job any number of times.
func OpenFirstSweepJournal(cfg Config, n int) (*Journal, error) {
	if cfg.Journal == "" {
		return nil, fmt.Errorf("scenario: OpenFirstSweepJournal needs a journaling Config (WithJournal)")
	}
	c := cfg.WithJournal(cfg.Journal, true)
	return openSweepJournal(c, n)
}

// createJournal starts a fresh journal with its meta record.
func createJournal(path string, meta SweepMeta) (*Journal, error) {
	w, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{w: w, meta: meta, path: path, done: map[int]json.RawMessage{}}
	if err := j.appendRecord(journalRecord{Kind: "meta", Meta: &meta}); err != nil {
		w.Close()
		return nil, err
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Completed returns the recovered replicate indices (ascending) and their
// recorded result JSON.
func (j *Journal) Completed() ([]int, map[int]json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	reps := make([]int, 0, len(j.done))
	results := make(map[int]json.RawMessage, len(j.done))
	for rep, raw := range j.done { //lint:allow maporder keys are sorted below; the copy is per-key independent
		reps = append(reps, rep)
		results[rep] = raw
	}
	sort.Ints(reps)
	return reps, results
}

// Record checkpoints one completed replicate. The result must already be its
// canonical JSON encoding (the bytes merged back on resume).
func (j *Journal) Record(rep int, result json.RawMessage, retries int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendRecord(journalRecord{
		Kind:    "replicate",
		Rep:     rep,
		Seed:    ReplicateSeed(j.meta.BaseSeed, rep),
		Retries: retries,
		Result:  result,
	})
}

// Truncation journals a budget-exhaustion marker naming the replicates that
// were never run, so a truncated sweep is auditable from its journal alone.
func (j *Journal) Truncation(dropped []int, reason string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendRecord(journalRecord{Kind: "truncated", Dropped: dropped, Reason: reason})
}

// appendRecord frames and appends one record. Callers hold j.mu (or have
// exclusive access during open).
func (j *Journal) appendRecord(rec journalRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("scenario: encoding journal record: %w", err)
	}
	return j.w.Append(raw)
}

// Sync flushes outstanding records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Close()
}
