package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuProfile captures a CPU profile in memory for a traced phase.
type cpuProfile struct {
	buf bytes.Buffer
}

// startCPUProfile begins profiling the whole process.
func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends profiling, saves the raw profile next to the spans (for
// `go tool pprof`) and sets <layer>.cpu_share for every bucket: as a metric
// for the buckets every workload spends time in, as a detail for the rest.
func (p *cpuProfile) stop(r *run) error {
	pprof.StopCPUProfile()
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.workload, r.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	prof, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	shares := layerShares(prof)
	for _, l := range layerBuckets {
		if sharedBuckets[l] {
			r.set(l+".cpu_share", shares[l], "ratio")
		} else {
			r.detail(l+".cpu_share", shares[l], "ratio")
		}
	}
	return nil
}

// sharedBuckets are the buckets every workload's timed phase spends a
// sizeable share in: each runs TYCOS searches. The others are idle or nearly
// so on some workload (no HTTP in search, no screen in serve, a few samples
// of lahc), so their share is reported as a detail.
var sharedBuckets = map[string]bool{"knn": true, "mi": true, "core": true, "runtime": true}

// layerBuckets are the CPU-share buckets, named as the metrics report them.
// The tycos packages map to their layer; runtime (including GC), net/http
// and encoding/json are their own buckets; everything else is "other".
var layerBuckets = []string{
	"knn", "mi", "core", "lahc", "discovery", "baseline", "daemon", "obs",
	"checkpoint", "runtime", "nethttp", "json", "other",
}

// packageLayer maps a package import path to its bucket, or "" for a
// standard-library helper (math, sort, …) whose time belongs to its caller.
func packageLayer(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "tycos/internal/"):
		name := strings.TrimPrefix(pkg, "tycos/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		switch name {
		case "knn", "mi", "core", "lahc", "discovery", "baseline", "daemon", "obs", "checkpoint":
			return name
		case "window", "series":
			return "core"
		case "mathx":
			return "mi"
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "nethttp"
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "tycos"):
		return "other"
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "tycos/internal/knn.(*Grid).Insert" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShares attributes every sample's CPU time to the layer of its
// innermost frame that belongs to a bucket (standard-library helpers are
// skipped toward their caller; a stack of helpers only is "other") and
// returns each bucket's share of the total.
func layerShares(p profile) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "other"
	stack:
		for _, fn := range s.funcs {
			if l := packageLayer(funcPackage(fn)); l != "" {
				layer = l
				break stack
			}
		}
		out[layer] += float64(s.value)
		total += float64(s.value)
	}
	for _, l := range layerBuckets {
		if total > 0 {
			out[l] /= total
		}
	}
	return out
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []sample
}

// sample is one stack (innermost function first, inlined frames expanded)
// with its last value (CPU nanoseconds for a CPU profile).
type sample struct {
	funcs []string
	value int64
}

// decodeProfile reads a gzip-compressed pprof protobuf with a minimal wire
// reader: only the Profile fields sample (2), location (4), function (5) and
// string_table (6) are interpreted.
func decodeProfile(data []byte) (profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return profile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profile{}, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return profile{}, err
	}
	var p profile
	for _, rs := range samples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{value: rs.values[len(rs.values)-1]}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				idx := funcs[f]
				if idx < 0 || int(idx) >= len(strs) {
					return profile{}, fmt.Errorf("function %d names string %d of %d", f, idx, len(strs))
				}
				s.funcs = append(s.funcs, strs[idx])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, which arrive
// either one per field (wire type 0) or packed into one length-delimited
// field (wire type 2).
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped; groups are not supported.
func eachField(b []byte, fn func(num int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}
