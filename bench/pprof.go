package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
)

// profileSample is one sample of a pprof profile: the function names of its
// stack, innermost first, and the value of the profile's last sample type
// (CPU nanoseconds for a CPU profile).
type profileSample struct {
	stack []string
	value int64
}

// decodeProfile reads the gzip-compressed protobuf runtime/pprof writes.  It
// understands only the fields needed to name each sample's stack; the module
// has no dependency that could do this, and must not grow one.
func decodeProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	// profile.proto: Profile{sample=2, location=4, function=5, string_table=6},
	// Sample{location_id=1, value=2}, Location{id=1, line=4},
	// Line{function_id=1}, Function{id=1, name=2}.
	type rawSample struct {
		locations []uint64
		values    []uint64
	}
	var (
		samples   []rawSample
		locations = make(map[uint64][]uint64) // location id -> function ids, innermost first
		functions = make(map[uint64]uint64)   // function id -> name string index
		table     []string
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(body, func(num int, varint uint64, body []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, varint, body)
				case 2:
					s.values = appendVarints(s.values, varint, body)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(body, func(num int, varint uint64, body []byte) error {
				switch num {
				case 1:
					id = varint
				case 4:
					return eachField(body, func(num int, varint uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, varint)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := eachField(body, func(num int, varint uint64, _ []byte) error {
				switch num {
				case 1:
					id = varint
				case 2:
					name = varint
				}
				return nil
			})
			functions[id] = name
			return err
		case 6:
			table = append(table, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profileSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locations {
			for _, fn := range locations[loc] {
				if idx := functions[fn]; idx < uint64(len(table)) {
					ps.stack = append(ps.stack, table[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks the top-level fields of one protobuf message.  fn gets the
// field number and either the varint value (wire type 0) or the bytes of a
// length-delimited field (wire type 2); fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return errors.New("unsupported protobuf wire type")
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value (body == nil) or a packed run of them.
func appendVarints(dst []uint64, varint uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, varint)
	}
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		body = body[n:]
	}
	return dst
}
