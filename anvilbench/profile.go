package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the repo's module names under repro/internal that the CPU
// profile is folded into, in report order; gc and other close the list.
var layers = []string{
	"vm", "cache", "dram", "pmu", "memsys", "machine", "workload", "attack",
	"anvil", "defense", "fault", "sim", "scenario", "experiments", "journal",
	"sweepd", "workerd", "gc", "other",
}

const repoPrefix = "repro/internal/"

// gcRoots are the runtime's background GC goroutines. They never call repo
// code, so a stack containing one of them is GC work no layer asked for.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// allocFrames mark a sample as allocation work, whichever layer it lands in.
var allocFrames = map[string]bool{
	"runtime.mallocgc":  true,
	"runtime.growslice": true,
}

// stackSample is one profile sample: function names leaf first, and the CPU
// time it stands for.
type stackSample struct {
	frames []string
	nanos  int64
}

// folded is a CPU profile reduced to per-layer time.
type folded struct {
	layerNanos map[string]int64
	allocNanos int64 // samples with mallocgc/growslice on the stack; overlaps layers
	totalNanos int64
}

// layerOf charges a stack to a layer: gc for background GC workers, else the
// innermost repro/internal/<layer> frame — so runtime work a layer triggers
// (growslice, map hashing, GC assists) counts to that layer — else other.
// A repo package outside the layer list is also other.
func layerOf(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, repoPrefix) {
			continue
		}
		name := f[len(repoPrefix):]
		if i := strings.IndexAny(name, "./"); i >= 0 {
			name = name[:i]
		}
		for _, l := range layers {
			if l == name && l != "gc" && l != "other" {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// fold reduces samples to per-layer CPU time.
func fold(samples []stackSample) folded {
	f := folded{layerNanos: map[string]int64{}}
	for _, s := range samples {
		f.layerNanos[layerOf(s.frames)] += s.nanos
		f.totalNanos += s.nanos
		for _, fr := range s.frames {
			if allocFrames[fr] {
				f.allocNanos += s.nanos
				break
			}
		}
	}
	return f
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes into leaf-first stacks carrying the "cpu" sample value. It reads
// only the fields folding needs: samples, locations (with inlined lines),
// functions and the string table.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location → function ids, innermost first
		funcName    = map[uint64]int64{}    // function → string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample lacks a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		out = append(out, stackSample{frames: frames, nanos: s.values[cpu]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type and payload: the value for varints, the bytes for
// length-delimited fields. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, payload); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
