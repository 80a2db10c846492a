package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the ecoscale/internal packages the profiles are split
// into. Samples in other packages of the module count as "other".
var layers = []string{
	"hls", "sim", "unimem", "noc", "accel", "fabric", "smmu", "mem",
	"rts", "unilogic", "core", "runner", "cas", "trace",
}

const internalPrefix = "ecoscale/internal/"

// gcPrefixes name the runtime's allocator and collector functions. A
// CPU sample with any of them on its stack is charged to "gc".
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.gc", "runtime.GC", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.wbBufFlush", "runtime.(*mcache)",
	"runtime.(*mheap)", "runtime.(*gcWork)",
}

// pkgOf returns the layer a stack of function names (leaf first) is
// charged to: the innermost ecoscale/internal package on it, so runtime
// helpers such as map lookups count against the layer that called them.
func pkgOf(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		p := f[len(internalPrefix):]
		if i := strings.IndexAny(p, "./"); i >= 0 {
			p = p[:i]
		}
		for _, l := range layers {
			if p == l {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// cpuLayer charges a CPU sample to "gc" when the allocator or collector
// is on its stack, and otherwise as pkgOf does.
func cpuLayer(frames []string) string {
	for _, f := range frames {
		for _, g := range gcPrefixes {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	return pkgOf(frames)
}

// profileShares is what a profiled phase yields: each layer's share of
// CPU samples and the bytes allocated under each layer.
type profileShares struct {
	cpu        map[string]float64
	allocBytes map[string]float64
}

// profiled runs f under the CPU profiler and between two heap-profile
// snapshots.
func profiled(f func()) (profileShares, error) {
	before := memRecords()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return profileShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	after := memRecords()

	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		return profileShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	ps := profileShares{cpu: map[string]float64{}, allocBytes: map[string]float64{}}
	var total float64
	for i, st := range stacks {
		ps.cpu[cpuLayer(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	for l := range ps.cpu {
		ps.cpu[l] /= total
	}
	rate := float64(runtime.MemProfileRate)
	for k, a := range after {
		objs := a.AllocObjects - before[k].AllocObjects
		size := a.AllocBytes - before[k].AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		// Undo the heap profiler's sampling as pprof does.
		scale := 1 / (1 - math.Exp(-float64(size)/float64(objs)/rate))
		ps.allocBytes[pkgOf(funcNames(a.Stack()))] += float64(size) * scale
	}
	return ps, nil
}

// memRecords snapshots the heap profile, keyed by stack.
func memRecords() map[string]runtime.MemProfileRecord {
	// The profile lags up to two collections behind the allocations.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[string]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[fmt.Sprint(r.Stack())] = r
	}
	return out
}

// funcNames expands a call stack into function names, leaf first.
func funcNames(pcs []uintptr) []string {
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

var errProfile = errors.New("malformed profile")

// parseProfile decodes a gzipped pprof CPU profile into the function
// names of each sample's stack, leaf first, and each sample's count.
// It reads only the fields it needs: samples (2), locations (4),
// functions (5) and the string table (6).
func parseProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = eachField(raw, func(num int, typ uint64, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, typ uint64, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, typ, v, b)
				case 2:
					vals, err = appendUints(vals, typ, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errProfile
			}
			s.value = int64(vals[0])
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, typ uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, typ uint64, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(b, func(num int, typ uint64, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ni, ok := funcs[f]
				if !ok || ni >= uint64(len(strs)) {
					return nil, nil, errProfile
				}
				stacks[i] = append(stacks[i], strs[ni])
			}
		}
		weights[i] = s.value
	}
	return stacks, weights, nil
}

// eachField calls fn for each field of one protocol-buffer message with
// its number, wire type, and its value (varint and fixed types) or its
// bytes (length-delimited type).
func eachField(b []byte, fn func(num int, typ uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		typ := key & 7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, typ, v uint64, b []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
