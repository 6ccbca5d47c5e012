package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto files that
// runtime/pprof writes, reduced to what the per-layer CPU split needs:
// each sample's CPU nanoseconds and its stack as function names.

// stackSample is one profile sample: its CPU time and its frames, leaf
// first, with inlined calls expanded (an inlined callee precedes the
// function it was inlined into, as in the profile itself).
type stackSample struct {
	cpuNS int64
	stack []string
}

// readProfile decodes a gzipped CPU profile.
func readProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) ([]stackSample, error) {
	var (
		sampleTypes []int64 // string-table indices of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]int64{}    // function id -> string-table index
		strs        []string
	)
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			return eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := eachField(msg, func(n int, v uint64, packed []byte) error {
				switch n {
				case sampleLocationID:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, line []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
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
		return nil, errors.New("profile: no cpu sample type (not a CPU profile)")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ss := stackSample{cpuNS: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.stack = append(ss.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto has none that matter.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether the
// encoder wrote it packed (packed != nil) or as a single value v.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// layerPrefix marks the program's own code: the layer of a frame is the
// package directly under it.
const layerPrefix = "repro/internal/"

// layerOf names a frame's layer, or "" for a frame outside
// repro/internal (the runtime, the standard library, the benchmark).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// Boundaries whose cumulative CPU the split reports: a sample counts
// toward a boundary when any frame of its stack is one of its functions.
var boundaries = map[string][]string{
	"sim.switch": {
		layerPrefix + "sim.(*Proc).park",
		layerPrefix + "sim.(*Proc).waitBaton",
		layerPrefix + "sim.(*Engine).resume",
	},
	"monitor.place": {
		layerPrefix + "monitor.(*Monitor).donorCandidates",
	},
	"fabric.topo": {
		layerPrefix + "fabric.Topology.HopCount",
		layerPrefix + "fabric.Topology.adjacency",
		layerPrefix + "fabric.Topology.shortestNextHops",
	},
}

// schedRoots are the runtime frames a scheduler stack starts from: the
// goroutine switches behind every channel handoff run on the system
// stack, whose traceback does not reach the parked goroutine.
var schedRoots = []string{"runtime.mcall", "runtime.schedule", "runtime.findRunnable"}

// cpuSplit is a profile's CPU time by layer, in nanoseconds.
type cpuSplit struct {
	total int64
	// self holds each sample under the innermost repro/internal frame of
	// its stack, so runtime work such as allocation counts toward the
	// layer that asked for it. Samples with no such frame go under
	// "bench" when the benchmark's own code is on the stack and under
	// "runtime" otherwise; the values sum to total.
	self map[string]int64
	// under holds the boundaries' cumulative time.
	under map[string]int64
	// sched is the time in pure scheduler stacks (no repro/internal
	// frame, rooted at a schedRoots function). It is also added to
	// under["sim.switch"]: the simulator's channel baton is what parks
	// and wakes goroutines in these workloads.
	sched int64
}

func splitByLayer(samples []stackSample) cpuSplit {
	s := cpuSplit{self: map[string]int64{}, under: map[string]int64{}}
	for _, smp := range samples {
		s.total += smp.cpuNS
		layer := "runtime"
		for _, fn := range smp.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
			if strings.HasPrefix(fn, "main.") {
				layer = "bench"
			}
		}
		s.self[layer] += smp.cpuNS
		for name, fns := range boundaries {
			if anyFrame(smp.stack, fns) {
				s.under[name] += smp.cpuNS
			}
		}
		if layer == "runtime" && anyFrame(smp.stack, schedRoots) {
			s.sched += smp.cpuNS
			s.under["sim.switch"] += smp.cpuNS
		}
	}
	return s
}

func anyFrame(stack, fns []string) bool {
	for _, f := range stack {
		for _, want := range fns {
			if f == want {
				return true
			}
		}
	}
	return false
}
