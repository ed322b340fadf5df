package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// Minimal protobuf writers for hand-built profiles.
func pbVarint(b []byte, num int, x uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(b, x)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, num int, xs ...uint64) []byte {
	var p []byte
	for _, x := range xs {
		p = binary.AppendUvarint(p, x)
	}
	return pbBytes(b, num, p)
}

// testProfile builds a gzipped CPU profile with three samples:
// 30 ns in pipeline, 10 ns in encoding/json (called from pipeline) and
// 60 ns in runtime.mallocgc inlined into pipeline code.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count",
		"github.com/cmlasu/unsync/internal/pipeline.(*Core).issue",
		"encoding/json.(*decodeState).object",
		"runtime.mallocgc",
		"github.com/cmlasu/unsync/internal/reunion/crc.Update",
	}
	var p []byte
	fn := func(id, name uint64) {
		var f []byte
		f = pbVarint(f, fFunctionID, id)
		f = pbVarint(f, fFunctionName, name)
		p = pbBytes(p, fProfileFunction, f)
	}
	fn(1, 3)
	fn(2, 4)
	fn(3, 5)
	fn(4, 6)
	loc := func(id uint64, funcs ...uint64) {
		var l []byte
		l = pbVarint(l, fLocationID, id)
		for _, f := range funcs {
			l = pbBytes(l, fLocationLine, pbVarint(nil, fLineFunction, f))
		}
		p = pbBytes(p, fProfileLocation, l)
	}
	loc(1, 1)
	loc(2, 2)
	loc(3, 3, 1) // mallocgc inlined into issue: line[0] is the leaf
	loc(4, 4)

	// Unpacked repeated fields.
	var s []byte
	s = pbVarint(s, fSampleLocation, 1)
	s = pbVarint(s, fSampleValue, 3)
	s = pbVarint(s, fSampleValue, 30)
	p = pbBytes(p, fProfileSample, s)
	// Packed repeated fields.
	for _, smp := range []struct{ locs, vals []uint64 }{
		{[]uint64{2, 1}, []uint64{1, 10}},
		{[]uint64{3}, []uint64{6, 60}},
		{[]uint64{4, 1}, []uint64{2, 20}},
	} {
		var s []byte
		s = pbPacked(s, fSampleLocation, smp.locs...)
		s = pbPacked(s, fSampleValue, smp.vals...)
		p = pbBytes(p, fProfileSample, s)
	}
	for _, str := range strs {
		p = pbBytes(p, fProfileString, []byte(str))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldByPackage(t *testing.T) {
	byPkg, err := foldByPackage(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"github.com/cmlasu/unsync/internal/pipeline": 30.0 / 120,
		"encoding/json": 10.0 / 120,
		"runtime":       60.0 / 120,
		"github.com/cmlasu/unsync/internal/reunion/crc": 20.0 / 120,
	}
	if len(byPkg) != len(want) {
		t.Fatalf("folded %v, want %v", byPkg, want)
	}
	for pkg, frac := range want {
		if math.Abs(byPkg[pkg]-frac) > 1e-12 {
			t.Errorf("%s: %v, want %v", pkg, byPkg[pkg], frac)
		}
	}
	byLayer := foldByLayer(module, byPkg)
	for layer, frac := range map[string]float64{
		"pipeline": 30.0 / 120, "encoding_json": 10.0 / 120, "runtime": 60.0 / 120, "reunion": 20.0 / 120,
	} {
		if math.Abs(byLayer[layer]-frac) > 1e-12 {
			t.Errorf("layer %s: %v, want %v", layer, byLayer[layer], frac)
		}
	}
}

func TestFoldRejectsMalformed(t *testing.T) {
	if _, err := foldByPackage([]byte("not gzip")); err == nil {
		t.Error("non-gzip input accepted")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte{0x12, 0x05, 0x01}) // length 5, 1 byte of payload
	_ = zw.Close()
	if _, err := foldByPackage(buf.Bytes()); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for fn, pkg := range map[string]string{
		"github.com/cmlasu/unsync/internal/pipeline.(*Core).issue": "github.com/cmlasu/unsync/internal/pipeline",
		"github.com/cmlasu/unsync/internal/fault.UnSyncTrialBatch": "github.com/cmlasu/unsync/internal/fault",
		"encoding/json.Unmarshal":                                  "encoding/json",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/syscall.Syscall6":                        "internal/runtime/syscall",
		"main.main.func1":                                          "main",
	} {
		if got := packageOf(fn); got != pkg {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, pkg)
		}
	}
	for pkg, layer := range map[string]string{
		"github.com/cmlasu/unsync/internal/reunion/crc": "reunion",
		"github.com/cmlasu/unsync/internal/emu":         "emu",
		"encoding/json":                                 "encoding_json",
		"syscall":                                       "syscall",
		"internal/runtime/syscall":                      "syscall",
		"net/http":                                      "net_http",
	} {
		if got := layerOf(module, pkg); got != layer {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, layer)
		}
	}
}
