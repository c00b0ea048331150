package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes the gzipped protobuf that runtime/pprof writes, keeping
// only what layer attribution needs: each sample's CPU time and its stack
// as (function, file) frames. The schema is
// github.com/google/pprof/proto/profile.proto; field numbers below refer
// to it. The repository takes no dependencies, so this is a small
// hand-written wire-format reader rather than a generated one.

// profile is a decoded CPU profile.
type profile struct {
	samples []sample
}

// sample is one distinct stack with the samples that hit it.
type sample struct {
	count    int64
	cpuNanos int64
	frames   []frame // innermost first, inlined calls expanded
}

// frame is one function on a sampled stack.
type frame struct {
	fn, file string
}

// totals sums the sample count and CPU time over every stack.
func (p *profile) totals() (count, cpuNanos int64) {
	for _, s := range p.samples {
		count += s.count
		cpuNanos += s.cpuNanos
	}
	return count, cpuNanos
}

var errProto = errors.New("pprof: malformed protobuf")

// pbMsg walks the fields of one protobuf message.
type pbMsg struct {
	b   []byte
	err error
}

func (m *pbMsg) fail() {
	if m.err == nil {
		m.err = errProto
	}
	m.b = nil
}

func (m *pbMsg) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(m.b) == 0 {
			m.fail()
			return 0
		}
		c := m.b[0]
		m.b = m.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	m.fail()
	return 0
}

// next reads the next field key; it reports false at the end of the
// message or after an error.
func (m *pbMsg) next() (field, wire int, ok bool) {
	if m.err != nil || len(m.b) == 0 {
		return 0, 0, false
	}
	k := m.varint()
	return int(k >> 3), int(k & 7), m.err == nil
}

func (m *pbMsg) take(n uint64) []byte {
	if n > uint64(len(m.b)) {
		m.fail()
		return nil
	}
	out := m.b[:n]
	m.b = m.b[n:]
	return out
}

// bytes reads a length-delimited value (wire type 2).
func (m *pbMsg) bytes(wire int) []byte {
	if wire != 2 {
		m.fail()
		return nil
	}
	return m.take(m.varint())
}

// uint reads a varint value (wire type 0).
func (m *pbMsg) uint(wire int) uint64 {
	if wire != 0 {
		m.fail()
		return 0
	}
	return m.varint()
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func (m *pbMsg) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, m.varint())
	}
	sub := pbMsg{b: m.bytes(wire)}
	for len(sub.b) > 0 {
		dst = append(dst, sub.varint())
	}
	if sub.err != nil {
		m.fail()
	}
	return dst
}

func (m *pbMsg) skip(wire int) {
	switch wire {
	case 0:
		m.varint()
	case 1:
		m.take(8)
	case 2:
		m.take(m.varint())
	case 5:
		m.take(4)
	default:
		m.fail()
	}
}

// parseProfile decodes a gzipped CPU profile as pprof.StartCPUProfile
// writes it.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return decodeProfile(raw)
}

func decodeProfile(raw []byte) (*profile, error) {
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs    []string
		types   []uint64 // string index of each sample type's name
		samples []rawSample
		locs    = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs   = map[uint64][2]uint64{} // function id -> (name, filename) string indexes
	)
	m := pbMsg{b: raw}
	for {
		field, wire, ok := m.next()
		if !ok {
			break
		}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			sub := pbMsg{b: m.bytes(wire)}
			var typ uint64
			for f, w, ok := sub.next(); ok; f, w, ok = sub.next() {
				if f == 1 {
					typ = sub.uint(w)
				} else {
					sub.skip(w)
				}
			}
			m.err = errors.Join(m.err, sub.err)
			types = append(types, typ)
		case 2: // sample: {location_id=1, value=2}
			sub := pbMsg{b: m.bytes(wire)}
			var s rawSample
			for f, w, ok := sub.next(); ok; f, w, ok = sub.next() {
				switch f {
				case 1:
					s.locs = sub.uints(w, s.locs)
				case 2:
					s.vals = sub.uints(w, s.vals)
				default:
					sub.skip(w)
				}
			}
			m.err = errors.Join(m.err, sub.err)
			samples = append(samples, s)
		case 4: // location: {id=1, line=4: Line{function_id=1}}
			sub := pbMsg{b: m.bytes(wire)}
			var id uint64
			var fns []uint64
			for f, w, ok := sub.next(); ok; f, w, ok = sub.next() {
				switch f {
				case 1:
					id = sub.uint(w)
				case 4:
					line := pbMsg{b: sub.bytes(w)}
					for lf, lw, ok := line.next(); ok; lf, lw, ok = line.next() {
						if lf == 1 {
							fns = append(fns, line.uint(lw))
						} else {
							line.skip(lw)
						}
					}
					sub.err = errors.Join(sub.err, line.err)
				default:
					sub.skip(w)
				}
			}
			m.err = errors.Join(m.err, sub.err)
			locs[id] = fns
		case 5: // function: {id=1, name=2, filename=4}
			sub := pbMsg{b: m.bytes(wire)}
			var id uint64
			var nf [2]uint64
			for f, w, ok := sub.next(); ok; f, w, ok = sub.next() {
				switch f {
				case 1:
					id = sub.uint(w)
				case 2:
					nf[0] = sub.uint(w)
				case 4:
					nf[1] = sub.uint(w)
				default:
					sub.skip(w)
				}
			}
			m.err = errors.Join(m.err, sub.err)
			funcs[id] = nf
		case 6: // string_table
			strs = append(strs, string(m.bytes(wire)))
		default:
			m.skip(wire)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	// CPU profiles carry two values per sample: samples/count and
	// cpu/nanoseconds.
	count, cpu := -1, -1
	for i, t := range types {
		switch s, _ := str(t); s {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("pprof: not a CPU profile")
	}
	p := &profile{samples: make([]sample, 0, len(samples))}
	for _, rs := range samples {
		if count >= len(rs.vals) || cpu >= len(rs.vals) {
			return nil, errors.New("pprof: sample with missing values")
		}
		s := sample{count: int64(rs.vals[count]), cpuNanos: int64(rs.vals[cpu])}
		for _, l := range rs.locs {
			fns, ok := locs[l]
			if !ok {
				return nil, fmt.Errorf("pprof: unknown location %d", l)
			}
			for _, fid := range fns {
				nf, ok := funcs[fid]
				if !ok {
					return nil, fmt.Errorf("pprof: unknown function %d", fid)
				}
				name, err := str(nf[0])
				if err != nil {
					return nil, err
				}
				file, err := str(nf[1])
				if err != nil {
					return nil, err
				}
				s.frames = append(s.frames, frame{fn: name, file: file})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
