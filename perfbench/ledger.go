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

// The CPU ledger charges every sample of a runtime/pprof CPU profile to
// one layer: the innermost frame that belongs to a vdm/internal module
// names it. Stacks made only of Go runtime frames (GC workers, the
// scheduler) go to "runtime"; anything else (the standard library called
// from the benchmark itself, syscalls outside the program) to "other".

// ledgerLayers are the modules the ledger reports by name; samples in any
// other vdm/internal module are charged to "other".
var ledgerLayers = []string{
	"eventq", "core", "overlay", "underlay", "rng", "topology", "sim",
	"metrics", "hmtp", "geo", "lab", "wire", "transport", "flow", "live", "obs",
}

const internalPrefix = "vdm/internal/"

// attribute names the layer a stack is charged to. funcs lists the
// stack's function names innermost first, inlined frames included.
func attribute(funcs []string) string {
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, l := range ledgerLayers {
			if l == mod {
				return mod
			}
		}
		return "other"
	}
	if len(funcs) == 0 {
		return "other"
	}
	for _, f := range funcs {
		if !isRuntimeFunc(f) {
			return "other"
		}
	}
	return "runtime"
}

func isRuntimeFunc(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "runtime/") ||
		strings.HasPrefix(f, "internal/runtime/") || f == "gcBgMarkWorker"
}

// ledger is the per-layer CPU time of one profile.
type ledger struct {
	CPU     map[string]float64 // seconds per layer
	Samples int
}

// ledgerFromProfile decodes a gzip-compressed pprof CPU profile and
// charges each sample's CPU time to its layer.
func ledgerFromProfile(data []byte) (ledger, error) {
	p, err := parseProfile(data)
	if err != nil {
		return ledger{}, err
	}
	l := ledger{CPU: map[string]float64{}}
	// The CPU value is the sample type measured in nanoseconds; the
	// other one counts samples.
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st.unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return ledger{}, errors.New("ledger: profile has no nanoseconds sample type")
	}
	var funcs []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		funcs = funcs[:0]
		for _, locID := range s.locations {
			loc := p.locations[locID]
			for _, fid := range loc {
				funcs = append(funcs, p.str(p.functions[fid]))
			}
		}
		l.CPU[attribute(funcs)] += float64(s.values[vi]) / 1e9
		l.Samples++
	}
	return l, nil
}

// profile is the subset of the pprof protocol buffer the ledger reads.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type valueType struct{ typ, unit int64 }

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto the ledger needs:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		data = raw
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			var vt valueType
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2:
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, bb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return appendVarints(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line: function_id (1)
					return eachField(bb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fids = append(fids, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5:
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
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protocol buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the top-level fields of one protocol buffer message,
// passing varint fields as v and length-delimited fields as b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("ledger: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("ledger: bad varint")
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errors.New("ledger: short fixed64")
			}
			data = data[8:]
		case wire32:
			if len(data) < 4 {
				return errors.New("ledger: short fixed32")
			}
			data = data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("ledger: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("ledger: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint per field, or a packed run of varints.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("ledger: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
