package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestFoldRules(t *testing.T) {
	samples := []stackSample{
		// Runtime work is charged to the innermost repo frame that caused it.
		{[]string{"runtime.growslice", "repro/internal/workload.(*Synthetic).NextRun",
			"repro/internal/machine.(*Machine).Run", "repro/internal/experiments.Table4"}, 30},
		{[]string{"runtime.mapaccess2", "runtime.aeshashbody", "repro/internal/vm.(*AddressSpace).Translate",
			"repro/internal/memsys.(*System).AccessRun", "repro/internal/machine.(*Machine).Run"}, 18},
		// Closures and generic instantiations keep their package.
		{[]string{"repro/internal/cache.(*Hierarchy).Access", "repro/internal/scenario.RunSweep[...].func2"}, 57},
		// GC background workers go to gc whatever they run.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, 7},
		// No repo frame at all, or a repo package outside the layer list.
		{[]string{"syscall.Syscall", "net.(*conn).Write", "runtime.goexit"}, 5},
		{[]string{"repro/internal/report.Table", "main.main"}, 2},
		// A GC assist inside a layer stays with the layer and counts as
		// allocation work.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/dram.(*Module).Access"}, 11},
	}
	f := fold(samples)
	want := map[string]int64{"workload": 30, "vm": 18, "cache": 57, "gc": 7, "other": 7, "dram": 11}
	for l, n := range want {
		if f.layerNanos[l] != n {
			t.Errorf("%s: got %d, want %d", l, f.layerNanos[l], n)
		}
	}
	if len(f.layerNanos) != len(want) {
		t.Errorf("layers charged: %v, want exactly %v", f.layerNanos, want)
	}
	if f.allocNanos != 41 {
		t.Errorf("alloc: got %d, want 41 (growslice 30 + mallocgc 11)", f.allocNanos)
	}
	if f.totalNanos != 130 {
		t.Errorf("total: got %d, want 130", f.totalNanos)
	}
}

// pb builds protobuf messages for the hand-made profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.growslice", "repro/internal/workload.(*Synthetic).NextRun", "main.main"}
	var prof pb
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).Bytes()) // samples/count
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).Bytes()) // cpu/nanoseconds
	// Sample: location 1 (leaf), then 2; values packed; plus an unpacked one.
	prof.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30000000)).Bytes())
	prof.bytes(2, (&pb{}).varint(1, 2).varint(2, 1).varint(2, 10000000).Bytes())
	// Location 1 has growslice inlined into NextRun; location 2 is main.
	prof.bytes(4, (&pb{}).varint(1, 1).varint(3, 0x1234).
		bytes(4, (&pb{}).varint(1, 10).varint(2, 7).Bytes()).
		bytes(4, (&pb{}).varint(1, 11).varint(2, 9).Bytes()).Bytes())
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 12).Bytes()).Bytes())
	prof.bytes(5, (&pb{}).varint(1, 10).varint(2, 5).Bytes())
	prof.bytes(5, (&pb{}).varint(1, 11).varint(2, 6).Bytes())
	prof.bytes(5, (&pb{}).varint(1, 12).varint(2, 7).Bytes())
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(9, 1700000000) // time_nanos: a field folding ignores
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	got, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d samples, want 2", len(got))
	}
	wantFrames := []string{"runtime.growslice", "repro/internal/workload.(*Synthetic).NextRun", "main.main"}
	if len(got[0].frames) != 3 {
		t.Fatalf("frames %v, want %v", got[0].frames, wantFrames)
	}
	for i, f := range wantFrames {
		if got[0].frames[i] != f {
			t.Errorf("frame %d: %q, want %q", i, got[0].frames[i], f)
		}
	}
	if got[0].nanos != 30000000 || got[1].nanos != 10000000 {
		t.Errorf("cpu values %d, %d; want 30000000, 10000000", got[0].nanos, got[1].nanos)
	}
	f := fold(got)
	if f.layerNanos["workload"] != 30000000 || f.layerNanos["other"] != 10000000 {
		t.Errorf("fold of parsed profile: %v", f.layerNanos)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
}
