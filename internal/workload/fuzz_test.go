package workload

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/machine"
)

// FuzzParseTrace: the parser never panics and every successfully parsed
// trace survives a format/parse round trip.
func FuzzParseTrace(f *testing.F) {
	f.Add("L 0x1000\nS 64\nC 10\nF 0x40\n")
	f.Add("# comment\n\nL 1\n")
	f.Add("bogus line")
	f.Add("L 0xffffffffffffffff\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := FormatTrace(&buf, recs); err != nil {
			t.Fatalf("formatting parsed records: %v", err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("re-parsing formatted records: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d vs %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, recs[i], again[i])
			}
		}
	})
}

// FuzzSyntheticViews: any interleaving of NextRun, Advance and Next commits
// exactly the pure-Next operation stream. The input's first two bytes pick
// the profile and an op limit (0 = none); each following 5-byte step is a
// selector byte, a little-endian view size and a little-endian advance count.
func FuzzSyntheticViews(f *testing.F) {
	f.Add([]byte{7, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 3, 1, 255, 0, 200, 0, 0, 0, 0, 0, 0, 5, 255, 1, 255, 1})
	f.Add([]byte{9, 1, 2, 10, 0, 3, 0, 3, 1, 0, 1, 0, 2, 0, 0, 0, 0})
	profs := SPEC2006()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		p := profs[int(in[0])%len(profs)]
		s := mustNew(t, p).WithOpLimit(uint64(in[1]) * 16)
		ref := mustNew(t, p).WithOpLimit(uint64(in[1]) * 16)
		for step, rest := 0, in[2:]; len(rest) >= 5; step, rest = step+1, rest[5:] {
			if rest[0]%4 == 0 {
				checkViewOps(t, step, []machine.Op{s.Next()}, ref)
			} else {
				max := 1 + int(binary.LittleEndian.Uint16(rest[1:]))%512
				view := s.NextRun(max)
				k := int(binary.LittleEndian.Uint16(rest[3:])) % (len(view) + 1)
				checkViewOps(t, step, view[:k], ref)
				s.Advance(k)
			}
			if s.MemOps() != ref.MemOps() {
				t.Fatalf("step %d: MemOps() = %d, pure-Next reference has %d", step, s.MemOps(), ref.MemOps())
			}
		}
	})
}
