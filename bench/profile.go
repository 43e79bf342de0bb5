package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the traced
// round needs: each sample's stack as function names, leaf first,
// and its CPU time.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	cpuNS int64
}

// layerOf charges one stack to a layer: the innermost frame in a
// repository layer package wins, so standard-library frames (SHA-256,
// AES-GCM, allocation) go to the nearest repository caller, as do
// frames of helper packages that are not layers themselves (mem,
// perf, cycles, osal...). A stack with no layer frame belongs to the
// garbage collector when a collector frame is on it, else to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "sgxgauge/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(layers, rest[:i]) {
			return rest[:i]
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	return "other"
}

// attribute sums the profile's CPU seconds per layer and in total.
func (p *cpuProfile) attribute() (perLayer map[string]float64, total float64) {
	perLayer = map[string]float64{}
	for _, s := range p.samples {
		sec := float64(s.cpuNS) / 1e9
		perLayer[layerOf(s.stack)] += sec
		total += sec
	}
	return perLayer, total
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the fields the attribution reads are decoded.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes [][]byte
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = walkFields(raw, func(num int, r *pbReader) error {
		switch num {
		case 1:
			b, err := r.bytes()
			sampleTypes = append(sampleTypes, b)
			return err
		case 2:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var s rawSample
			err = walkFields(b, func(num int, r *pbReader) error {
				switch num {
				case 1:
					return r.uints(&s.locs)
				case 2:
					return r.uints(&s.values)
				}
				return r.skip()
			})
			samples = append(samples, s)
			return err
		case 4:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var id uint64
			var fns []uint64
			err = walkFields(b, func(num int, r *pbReader) error {
				switch num {
				case 1:
					return r.uint(&id)
				case 4:
					line, err := r.bytes()
					if err != nil {
						return err
					}
					return walkFields(line, func(num int, r *pbReader) error {
						if num == 1 {
							var fn uint64
							err := r.uint(&fn)
							fns = append(fns, fn)
							return err
						}
						return r.skip()
					})
				}
				return r.skip()
			})
			locFuncs[id] = fns
			return err
		case 5:
			b, err := r.bytes()
			if err != nil {
				return err
			}
			var id, name uint64
			err = walkFields(b, func(num int, r *pbReader) error {
				switch num {
				case 1:
					return r.uint(&id)
				case 2:
					return r.uint(&name)
				}
				return r.skip()
			})
			funcName[id] = name
			return err
		case 6:
			b, err := r.bytes()
			strs = append(strs, string(b))
			return err
		}
		return r.skip()
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU-time value is the sample type named "cpu".
	cpuIdx := -1
	for i, st := range sampleTypes {
		var typ uint64
		if err := walkFields(st, func(num int, r *pbReader) error {
			if num == 1 {
				return r.uint(&typ)
			}
			return r.skip()
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, profSample{stack: stack, cpuNS: int64(s.values[cpuIdx])})
	}
	return p, nil
}

// pbReader reads one protobuf message's fields.
type pbReader struct {
	b    []byte
	wire uint64 // wire type of the field being read
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of the message in b; fn must
// consume the field's value through r.
func walkFields(b []byte, fn func(num int, r *pbReader) error) error {
	r := &pbReader{b: b}
	for len(r.b) > 0 {
		key, err := r.varint()
		if err != nil {
			return err
		}
		r.wire = key & 7
		if err := fn(int(key>>3), r); err != nil {
			return err
		}
	}
	return nil
}

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
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

func (r *pbReader) bytes() ([]byte, error) {
	if r.wire != 2 {
		return nil, fmt.Errorf("profile: wire type %d where bytes expected", r.wire)
	}
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b, nil
}

func (r *pbReader) uint(dst *uint64) error {
	if r.wire != 0 {
		return fmt.Errorf("profile: wire type %d where varint expected", r.wire)
	}
	v, err := r.varint()
	*dst = v
	return err
}

// uints appends a repeated varint field in either its packed or its
// one-value-per-field encoding.
func (r *pbReader) uints(dst *[]uint64) error {
	if r.wire == 0 {
		v, err := r.varint()
		*dst = append(*dst, v)
		return err
	}
	b, err := r.bytes()
	if err != nil {
		return err
	}
	packed := &pbReader{b: b}
	for len(packed.b) > 0 {
		v, err := packed.varint()
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

func (r *pbReader) skip() error {
	switch r.wire {
	case 0:
		_, err := r.varint()
		return err
	case 1, 5:
		n := 8
		if r.wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			return errTruncated
		}
		r.b = r.b[n:]
		return nil
	case 2:
		_, err := r.bytes()
		return err
	}
	return fmt.Errorf("profile: unsupported wire type %d", r.wire)
}
