package sweepd

import (
	"fmt"
	"time"
)

// Quota is the per-caller admission limit, built on the same two axes as the
// PR-5 sweep Budget: executed replicates and wall-clock time. The zero value
// is unlimited.
//
// Quotas are enforced at admission (a caller over either limit gets a loud
// 429) but charged only by completion records — a sweep that crashes
// mid-run and resumes from its checkpoint journal re-charges nothing for
// the replicates it merges back, so a crash can never double-bill a caller.
type Quota struct {
	// Replicates bounds the freshly-executed replicates charged to one
	// caller across all their jobs; zero means unlimited.
	Replicates int
	// WallClock bounds the total job wall-clock time charged to one caller;
	// zero means unlimited.
	WallClock time.Duration
}

// Usage is a caller's charged consumption. Replicates counts only fresh
// (non-resumed) replicate executions; WallClock sums the host time their
// jobs ran. Both accrue exclusively from journaled completion records.
type Usage struct {
	Replicates int           `json:"replicates"`
	WallClock  time.Duration `json:"wall_clock_ns"`
}

// add folds one completion record's charge into the usage.
func (u *Usage) add(fresh int, wall time.Duration) {
	u.Replicates += fresh
	u.WallClock += wall
}

// Exceeded reports whether usage has consumed the quota, with a reason
// suitable for a 429 body.
func (q Quota) Exceeded(u Usage) (string, bool) {
	if q.Replicates > 0 && u.Replicates >= q.Replicates {
		return fmt.Sprintf("replicate quota exhausted: %d of %d charged", u.Replicates, q.Replicates), true
	}
	if q.WallClock > 0 && u.WallClock >= q.WallClock {
		return fmt.Sprintf("wall-clock quota exhausted: %v of %v charged", u.WallClock, q.WallClock), true
	}
	return "", false
}

// QuotaStatus is the wire shape of GET /v1/quota: a caller's charged usage
// against the server's per-caller limits (zero limit = unlimited).
type QuotaStatus struct {
	Caller          string `json:"caller"`
	Used            Usage  `json:"used"`
	LimitReplicates int    `json:"limit_replicates,omitempty"`
	LimitWallClock  int64  `json:"limit_wall_clock_ns,omitempty"`
}
