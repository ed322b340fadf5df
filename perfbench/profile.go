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

// foldByPackage parses a runtime/pprof CPU profile (gzipped
// profile.proto) and returns each leaf package's share of the sampled
// CPU time. The leaf is the innermost function of a sample's first
// location, so time is attributed to the package that was executing —
// its self time — even when the benchmark reached it only through
// another layer.
func foldByPackage(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byPkg := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		pkg := "unknown"
		if fn := p.locLeaf[s.locs[0]]; fn != 0 {
			pkg = packageOf(p.strings[p.funcName[fn]])
		}
		byPkg[pkg] += v
	}
	if total == 0 {
		return byPkg, nil
	}
	for k := range byPkg {
		byPkg[k] /= total
	}
	return byPkg, nil
}

// packageOf returns the import path of a fully qualified Go function
// name such as "github.com/x/y/internal/pipeline.(*Core).issue".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps an import path to the layer name the per-layer metrics
// use: the package directory under the module's internal/ tree, with
// its subpackages folded in, "encoding_json" for encoding/json, and
// "syscall" for both syscall packages.
func layerOf(module, pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, module+"/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		return layer
	}
	switch pkg {
	case "syscall", "internal/runtime/syscall":
		return "syscall"
	}
	return strings.ReplaceAll(pkg, "/", "_")
}

// foldByLayer sums foldByPackage's shares per layer.
func foldByLayer(module string, byPkg map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for pkg, frac := range byPkg {
		out[layerOf(module, pkg)] += frac
	}
	return out
}

// pprofProfile is the subset of profile.proto the fold needs.
type pprofProfile struct {
	samples  []pprofSample
	locLeaf  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			id, leaf, err := parseLocation(data)
			if err != nil {
				return err
			}
			p.locLeaf[id] = leaf
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name index out of range")
		}
	}
	return p, nil
}

func parseSample(b []byte) (pprofSample, error) {
	var s pprofSample
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fSampleLocation:
			return appendVarints(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
		case fSampleValue:
			return appendVarints(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	return s, err
}

// parseLocation returns the location id and the function id of its
// first line: with inlining, line[0] is the innermost function.
func parseLocation(b []byte) (id, leaf uint64, err error) {
	err = eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fLocationID:
			id = v
		case fLocationLine:
			if leaf != 0 {
				return nil
			}
			return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				if num == fLineFunction {
					leaf = v
				}
				return nil
			})
		}
		return nil
	})
	return id, leaf, err
}

// appendVarints handles a repeated scalar field, packed or not.
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks one protobuf message, calling f with each field's
// number, wire type, varint value (varint fields) or payload (bytes
// fields).
func eachField(b []byte, f func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
