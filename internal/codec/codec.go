// Package codec implements the order-preserving key encoding used for all
// key/value-store keys: primary keys, secondary index entries, and range
// scan boundaries.
//
// The central invariant, relied on by every index scan in the engine and
// property-tested in codec_test.go, is
//
//	bytes.Compare(EncodeKey(a), EncodeKey(b)) == value.CompareRows(a, b)
//
// Descending components invert their payload bytes so that a single
// ascending byte scan over the store yields rows in the requested mixed
// ASC/DESC order (used by SortedIndexJoin over composite indexes).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"piql/internal/value"
)

// Type tags. Their byte order defines the cross-type sort order and must
// match the ordering of value.Type constants.
const (
	tagNull   byte = 0x02
	tagBool   byte = 0x03
	tagInt    byte = 0x04
	tagFloat  byte = 0x05
	tagString byte = 0x06
	tagBytes  byte = 0x07

	// String/bytes payload framing: 0x00 bytes are escaped as 0x00 0xFF
	// and the payload ends with 0x00 0x01, so that prefixes sort before
	// their extensions and no payload can escape its field.
	escByte  byte = 0x00
	escPad   byte = 0xFF
	termByte byte = 0x01
)

// Asc and Desc select the direction of a key component.
const (
	Asc  = false
	Desc = true
)

// AppendValue appends the order-preserving encoding of v to dst. If desc
// is true the component's bytes are inverted so larger values sort first.
func AppendValue(dst []byte, v value.Value, desc bool) []byte {
	start := len(dst)
	switch v.T {
	case value.TypeNull:
		dst = append(dst, tagNull)
	case value.TypeBool:
		if v.B {
			dst = append(dst, tagBool, 1)
		} else {
			dst = append(dst, tagBool, 0)
		}
	case value.TypeInt:
		dst = append(dst, tagInt)
		// Flip the sign bit so negative numbers sort before positive.
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63))
	case value.TypeFloat:
		dst = append(dst, tagFloat)
		dst = binary.BigEndian.AppendUint64(dst, floatSortBits(v.F))
	case value.TypeString:
		dst = append(dst, tagString)
		dst = appendEscaped(dst, []byte(v.S))
	case value.TypeBytes:
		dst = append(dst, tagBytes)
		dst = appendEscaped(dst, v.R)
	default:
		panic(fmt.Sprintf("codec: unknown value type %d", v.T))
	}
	if desc {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

func appendEscaped(dst, payload []byte) []byte {
	for _, b := range payload {
		if b == escByte {
			dst = append(dst, escByte, escPad)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, escByte, termByte)
}

// floatSortBits maps an IEEE-754 double onto a uint64 whose unsigned
// ordering matches the float ordering (with NaN first, matching
// value.Compare).
func floatSortBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative: invert everything
	}
	return bits | (1 << 63) // positive: set sign bit
}

// EncodeKey encodes a composite key. desc may be nil (all ascending) or
// must have one entry per value.
func EncodeKey(vals value.Row, desc []bool) []byte {
	if desc != nil && len(desc) != len(vals) {
		panic("codec: desc length mismatch")
	}
	dst := make([]byte, 0, 8+vals.Size())
	for i, v := range vals {
		d := false
		if desc != nil {
			d = desc[i]
		}
		dst = AppendValue(dst, v, d)
	}
	return dst
}

// DecodeKey decodes a composite key produced by EncodeKey. The caller must
// supply the same desc directions used during encoding.
func DecodeKey(key []byte, n int, desc []bool) (value.Row, error) {
	row := make(value.Row, 0, n)
	rest := key
	for i := 0; i < n; i++ {
		d := false
		if desc != nil {
			d = desc[i]
		}
		v, tail, err := decodeValue(rest, d)
		if err != nil {
			return nil, fmt.Errorf("codec: component %d: %w", i, err)
		}
		row = append(row, v)
		rest = tail
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("codec: %d trailing key bytes", len(rest))
	}
	return row, nil
}

func decodeValue(b []byte, desc bool) (value.Value, []byte, error) {
	if len(b) == 0 {
		return value.Value{}, nil, fmt.Errorf("truncated key")
	}
	tag := b[0]
	if desc {
		tag = ^tag
	}
	inv := func(x byte) byte {
		if desc {
			return ^x
		}
		return x
	}
	switch tag {
	case tagNull:
		return value.Null(), b[1:], nil
	case tagBool:
		if len(b) < 2 {
			return value.Value{}, nil, fmt.Errorf("truncated bool")
		}
		return value.Bool(inv(b[1]) != 0), b[2:], nil
	case tagInt:
		if len(b) < 9 {
			return value.Value{}, nil, fmt.Errorf("truncated int")
		}
		raw := make([]byte, 8)
		for i := 0; i < 8; i++ {
			raw[i] = inv(b[1+i])
		}
		u := binary.BigEndian.Uint64(raw)
		return value.Int(int64(u ^ (1 << 63))), b[9:], nil
	case tagFloat:
		if len(b) < 9 {
			return value.Value{}, nil, fmt.Errorf("truncated float")
		}
		raw := make([]byte, 8)
		for i := 0; i < 8; i++ {
			raw[i] = inv(b[1+i])
		}
		return value.Float(floatFromSortBits(binary.BigEndian.Uint64(raw))), b[9:], nil
	case tagString, tagBytes:
		payload, tail, err := decodeEscaped(make([]byte, 0, len(b)-1), b[1:], desc)
		if err != nil {
			return value.Value{}, nil, err
		}
		if tag == tagString {
			return value.Str(string(payload)), tail, nil
		}
		return value.Bytes(payload), tail, nil
	default:
		return value.Value{}, nil, fmt.Errorf("unknown key tag 0x%02x", tag)
	}
}

// decodeEscaped appends the payload of the escaped field at the front
// of b to out and returns it with the bytes after the field.
func decodeEscaped(out, b []byte, desc bool) (payload, tail []byte, err error) {
	i := 0
	for {
		if i >= len(b) {
			return nil, nil, fmt.Errorf("unterminated string key")
		}
		c := b[i]
		if desc {
			c = ^c
		}
		if c != escByte {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return nil, nil, fmt.Errorf("dangling escape in string key")
		}
		next := b[i+1]
		if desc {
			next = ^next
		}
		switch next {
		case escPad:
			out = append(out, escByte)
			i += 2
		case termByte:
			return out, b[i+2:], nil
		default:
			return nil, nil, fmt.Errorf("bad escape 0x%02x in string key", next)
		}
	}
}

// AppendStringPayload decodes enc, which must be exactly one string
// component encoded in direction desc, and appends the string's bytes
// to dst. ok is false when enc is anything else.
func AppendStringPayload(dst, enc []byte, desc bool) (out []byte, ok bool) {
	if len(enc) == 0 {
		return dst, false
	}
	tag := enc[0]
	if desc {
		tag = ^tag
	}
	if tag != tagString {
		return dst, false
	}
	out, tail, err := decodeEscaped(dst, enc[1:], desc)
	return out, err == nil && len(tail) == 0
}

func floatFromSortBits(u uint64) float64 {
	if u == 0 {
		return math.NaN()
	}
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// PrefixEnd returns the smallest key greater than every key having the
// given prefix, or nil if no such key exists (prefix is all 0xFF). It is
// used as the exclusive upper bound of prefix range scans.
func PrefixEnd(prefix []byte) []byte {
	end := make([]byte, len(prefix))
	copy(end, prefix)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
