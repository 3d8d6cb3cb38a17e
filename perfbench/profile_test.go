package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// handProfile builds a gzipped profile with one function per location:
// samples are (value, location ids innermost first).
func handProfile(t *testing.T, funcs []string, samples [][]uint64, values []int64) []byte {
	t.Helper()
	var p pb
	// string_table[0] must be "".
	p.bytes(6, nil)
	for _, f := range funcs {
		p.bytes(6, []byte(f))
	}
	for i := range funcs {
		id := uint64(i + 1)
		var fn pb
		fn.varint(1, id).varint(2, id) // name = string index i+1
		p.bytes(5, fn.b)
		var line pb
		line.varint(1, id)
		var loc pb
		loc.varint(1, id).bytes(4, line.b)
		p.bytes(4, loc.b)
	}
	for i, locs := range samples {
		var s pb
		s.bytes(1, packed(locs...))
		// Two values (count, nanoseconds); the second is attributed. The
		// count is written unpacked to exercise both encodings.
		s.varint(2, 1).varint(2, uint64(values[i]))
		p.bytes(2, s.b)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSharesOnHandBuiltProfile(t *testing.T) {
	funcs := []string{
		"tycos/internal/knn.(*Grid).KNearestInto", // 1
		"tycos/internal/mi.(*Incremental).Insert", // 2
		"math.Log",                                             // 3: stdlib helper, skipped
		"runtime.mallocgc",                                     // 4
		"net/http.(*conn).serve",                               // 5
		"encoding/json.(*encodeState).marshal",                 // 6
		"tycos/internal/window.MergeWithin",                    // 7: counted as core
		"slices.SortFunc[go.shape.[]tycos/internal/knn.Point]", // 8: stdlib helper
		"tycos/internal/daemon.(*Server).handleSearch",         // 9
		"sort.Ints", // 10
	}
	samples := [][]uint64{
		{1, 2},    // knn
		{3, 2},    // math.Log under mi → mi
		{4, 1},    // runtime
		{5},       // net/http
		{6, 9},    // encoding/json
		{7},       // core
		{8, 1},    // generic stdlib helper under knn → knn
		{10},      // stdlib only → other
		{9, 5},    // daemon
		{2, 9, 5}, // mi
	}
	values := []int64{30, 10, 5, 5, 10, 5, 10, 5, 10, 10}
	prof, err := decodeProfile(handProfile(t, funcs, samples, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(prof.samples), len(samples))
	}
	got := layerShares(prof)
	want := map[string]float64{
		"knn": 0.4, "mi": 0.2, "runtime": 0.05, "nethttp": 0.05, "json": 0.1,
		"core": 0.05, "other": 0.05, "daemon": 0.1,
	}
	for _, l := range layerBuckets {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %g, want %g", l, got[l], want[l])
		}
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	var p pb
	p.bytes(6, []byte("x"))
	bad := p.b[:len(p.b)-1]
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(bad)
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tycos/internal/knn.(*Grid).Insert":             "tycos/internal/knn",
		"runtime.mallocgc":                              "runtime",
		"net/http.(*conn).serve":                        "net/http",
		"tycos/internal/core.SearchContext.func1":       "tycos/internal/core",
		"slices.Sort[go.shape.[]tycos/internal/mi.Foo]": "slices",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
