package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run attributes host CPU time to the repository's modules from
// a runtime/pprof CPU profile. The standard library writes profiles but has
// no reader, so this file decodes the few protobuf fields attribution needs
// (profile.proto: samples with their location stacks and labels, locations
// with their inlined lines, functions and the string table).

// profSample is one decoded sample: its stack leaf first, CPU nanoseconds
// and string labels.
type profSample struct {
	locs   []uint64
	nanos  int64
	labels map[string]string
}

type profFunc struct {
	name, file string
}

// profile is the decoded subset of a CPU profile.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids of its lines, innermost first
	funcs   map[uint64]profFunc
}

// pbReader walks one protobuf message.
type pbReader struct {
	b []byte
}

var errTrunc = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTrunc
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field returns the next field number, wire type, varint value (wire type
// 0) or payload (wire type 2).
func (r *pbReader) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTrunc
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTrunc
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTrunc
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// varints appends a repeated integer field, packed (wire type 2) or not.
func varints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{b: data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	var strs []string
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		locs, vals []uint64
		labels     []rawLabel
	}
	type rawFunc struct{ id, name, file uint64 }
	var samples []rawSample
	var funcs []rawFunc
	r := &pbReader{b: raw}
	for len(r.b) > 0 {
		num, wt, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s rawSample
			sr := &pbReader{b: data}
			for len(sr.b) > 0 {
				n, wt, v, d, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = varints(s.locs, wt, v, d)
				case 2:
					s.vals, err = varints(s.vals, wt, v, d)
				case 3:
					var l rawLabel
					lr := &pbReader{b: d}
					for len(lr.b) > 0 {
						ln, _, lv, _, lerr := lr.field()
						if lerr != nil {
							return nil, lerr
						}
						switch ln {
						case 1:
							l.key = lv
						case 2:
							l.str = lv
						}
					}
					s.labels = append(s.labels, l)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := &pbReader{b: data}
			for len(lr.b) > 0 {
				n, _, v, d, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					var fn uint64
					sub := &pbReader{b: d}
					for len(sub.b) > 0 {
						ln, _, lv, _, err := sub.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fn = lv
						}
					}
					fns = append(fns, fn)
				}
			}
			p.locs[id] = fns
		case 5: // function
			var f rawFunc
			fr := &pbReader{b: data}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			funcs = append(funcs, f)
		case 6: // string table
			if wt != 2 {
				return nil, errors.New("profile: malformed string table")
			}
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, f := range funcs {
		p.funcs[f.id] = profFunc{name: str(f.name), file: str(f.file)}
	}
	for _, s := range samples {
		// CPU profiles carry [sample count, cpu nanoseconds] per sample.
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{locs: s.locs, nanos: int64(s.vals[1])}
		for _, l := range s.labels {
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[str(l.key)] = str(l.str)
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// modulePrefix marks the repository's own packages in function names.
const modulePrefix = "repro/internal/"

// kernelFileLayer moves kernel files that implement another layer's
// protocol to that layer.
var kernelFileLayer = map[string]string{
	"auto.go":     "auto",
	"dir.go":      "dir",
	"rlink.go":    "chaos",
	"twophase.go": "chaos",
}

// kernelSubLayer names the kernel files whose self time is also reported
// on its own, as a part of the kernel's.
var kernelSubLayer = map[string]string{
	"migrate.go": "kernel.migrate",
	"invoke.go":  "kernel.invoke",
}

// layerOf returns the layer a function belongs to ("" outside the
// repository's modules) and the kernel sub-layer its file reports, if any.
func layerOf(f profFunc) (layer, sub string) {
	if !strings.HasPrefix(f.name, modulePrefix) {
		return "", ""
	}
	// The layer is the first element of the package path: lang/parser is
	// lang, auto/workgen is auto.
	layer = f.name[len(modulePrefix):]
	if i := strings.IndexAny(layer, "/."); i >= 0 {
		layer = layer[:i]
	}
	if layer == "kernel" {
		base := path.Base(f.file)
		if l, ok := kernelFileLayer[base]; ok {
			return l, ""
		}
		return "kernel", kernelSubLayer[base]
	}
	return layer, ""
}

// attribute sums the CPU nanoseconds of the samples carrying label
// key=value by layer: each sample goes to its nearest repository frame,
// innermost first. Samples with no repository frame go to "other".
func (p *profile) attribute(key, value string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if s.labels[key] != value {
			continue
		}
		layer, sub := "other", ""
	stack:
		for _, id := range s.locs {
			for _, fn := range p.locs[id] {
				if l, sb := layerOf(p.funcs[fn]); l != "" {
					layer, sub = l, sb
					break stack
				}
			}
		}
		out[layer] += s.nanos
		if sub != "" {
			out[sub] += s.nanos
		}
	}
	return out
}
