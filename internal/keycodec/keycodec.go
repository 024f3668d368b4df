// Package keycodec provides order-preserving encodings of scalar values and
// tuples into byte strings.
//
// ReDe stores every key — primary keys, secondary-index keys, partition
// keys — as a lake.Key, which is an opaque byte string compared
// lexicographically. keycodec guarantees that for two values a and b of the
// same type, a < b if and only if Encode(a) < Encode(b) as byte strings.
// That property lets a single B-tree implementation index integers, floats,
// dates, and strings, and lets composite keys be built by concatenation.
//
// Encodings:
//
//   - int64: offset-binary (sign bit flipped) big-endian, 8 bytes.
//   - uint64: big-endian, 8 bytes.
//   - float64: IEEE-754 bits, sign-flipped for positives / fully inverted
//     for negatives (the standard order-preserving float trick), 8 bytes.
//   - string: the bytes themselves, with 0x00 escaped as 0x00 0xFF and
//     terminated by 0x00 0x01 so that tuple concatenation remains
//     order-preserving and unambiguous.
//
// Tuples are the concatenation of their elements' encodings; fixed-width
// elements are self-delimiting and strings carry their own terminator.
package keycodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Int64 encodes v so that byte-wise comparison matches signed comparison:
// AppendInt64 onto fresh memory.
func Int64(v int64) string {
	var b [8]byte
	return string(AppendInt64(b[:0], v))
}

// AppendInt64 appends the Int64 encoding of v to dst.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// DecodeInt64 reverses Int64. It returns an error if s is not exactly the
// 8-byte encoding produced by Int64.
func DecodeInt64(s string) (int64, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("keycodec: int64 key has length %d, want 8", len(s))
	}
	u := binary.BigEndian.Uint64([]byte(s))
	return int64(u ^ (1 << 63)), nil
}

// Uint64 encodes v big-endian so byte-wise comparison matches unsigned
// comparison.
func Uint64(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return string(b[:])
}

// DecodeUint64 reverses Uint64.
func DecodeUint64(s string) (uint64, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("keycodec: uint64 key has length %d, want 8", len(s))
	}
	return binary.BigEndian.Uint64([]byte(s)), nil
}

// Float64 encodes v so that byte-wise comparison matches IEEE-754 total
// order on the reals (NaNs sort after +Inf; -0 and +0 encode distinctly but
// adjacent): AppendFloat64 onto fresh memory.
func Float64(v float64) string {
	var b [8]byte
	return string(AppendFloat64(b[:0], v))
}

// AppendFloat64 appends the Float64 encoding of v to dst.
func AppendFloat64(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: invert all so more-negative sorts first
	} else {
		bits |= 1 << 63 // positive: set sign so positives sort after negatives
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// DecodeFloat64 reverses Float64.
func DecodeFloat64(s string) (float64, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("keycodec: float64 key has length %d, want 8", len(s))
	}
	bits := binary.BigEndian.Uint64([]byte(s))
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), nil
}

// String terminator and escape bytes. A raw 0x00 inside the string is
// escaped to 0x00 0xFF; the terminator 0x00 0x01 sorts below any escaped
// byte, so "a" < "a\x00b" < "ab" holds after encoding, matching Go string
// order.
const (
	strTerm1 = 0x00
	strTerm2 = 0x01
	strEsc2  = 0xFF
)

// smallKey is the size of the stack buffer the escape paths of String and
// DecodeString work in: the values that need escaping are mostly fixed-width
// keys wrapped in an index entry, and those fit, so the only allocation left
// is the result.
const smallKey = 64

// String encodes s with escaping and a terminator so that concatenated
// tuple encodings remain order-preserving.
func String(s string) string {
	if strings.IndexByte(s, strTerm1) < 0 {
		return s + "\x00\x01"
	}
	var buf [smallKey]byte
	return string(AppendString(buf[:0], s))
}

// AppendString appends the String encoding of s — a string or a byte slice —
// to dst and returns the extended slice, so callers assembling a payload
// size one buffer and encode straight into it.
func AppendString[T ~string | ~[]byte](dst []byte, s T) []byte {
	start := 0 // s[start:i] is the run since the last escape, copied in one piece
	for i := 0; i < len(s); i++ {
		if s[i] == strTerm1 {
			dst = append(append(dst, s[start:i]...), strTerm1, strEsc2)
			start = i + 1
		}
	}
	return append(append(dst, s[start:]...), strTerm1, strTerm2)
}

// DecodeString reverses String, returning the decoded value and the number
// of encoded bytes consumed (so tuples can be decoded element-wise). When the
// value holds no escape — its first 0x00 is the terminator's — the result is
// a substring of enc; otherwise it is decoded into fresh memory.
func DecodeString(enc string) (val string, n int, err error) {
	return decodeString(enc, strings.IndexByte(enc, strTerm1))
}

// AppendDecoded appends the value String encoded at the start of enc to dst
// and reports the encoded bytes consumed, for values that outlive the buffer
// they were read from: the value is copied, never aliased, and the call
// allocates nothing when dst has room for len(enc) more bytes (a value is
// never longer than its encoding). On error dst is returned unchanged.
func AppendDecoded(dst, enc []byte) (out []byte, n int, err error) {
	end, _, err := scanEscaped(enc)
	if err != nil {
		return dst, 0, err
	}
	return unescape(dst, enc[:end]), end + 2, nil
}

// decodeString decodes the value at the start of enc, whose first 0x00 is at
// i. string(enc[:i]) is a substring of a string and a copy of a byte slice.
func decodeString[T ~string | ~[]byte](enc T, i int) (val string, n int, err error) {
	if i >= 0 && i+1 < len(enc) && enc[i+1] == strTerm2 {
		return string(enc[:i]), i + 2, nil
	}
	end, _, err := scanEscaped(enc)
	if err != nil {
		return "", 0, err
	}
	var buf [smallKey]byte
	return string(unescape(buf[:0], enc[:end])), end + 2, nil
}

// DecodeBytes is DecodeString over a byte slice. When the value holds no
// escape the result aliases enc (capacity clipped, so appending to it cannot
// write into enc): it is valid only while enc is, and read-only whenever enc
// is. A value with an escape is decoded into fresh memory, byte-identical.
func DecodeBytes(enc []byte) (val []byte, n int, err error) {
	if i := bytes.IndexByte(enc, strTerm1); i >= 0 && i+1 < len(enc) && enc[i+1] == strTerm2 {
		return enc[:i:i], i + 2, nil
	}
	end, escapes, err := scanEscaped(enc)
	if err != nil {
		return nil, 0, err
	}
	return unescape(make([]byte, 0, end-escapes), enc[:end]), end + 2, nil
}

// scanEscaped finds the terminator of the encoded value at the start of enc,
// counting its escapes and reporting malformed input.
func scanEscaped[T ~string | ~[]byte](enc T) (end, escapes int, err error) {
	for i := 0; i < len(enc); i++ {
		if enc[i] != strTerm1 {
			continue
		}
		if i+1 >= len(enc) {
			return 0, 0, fmt.Errorf("keycodec: truncated string key")
		}
		switch enc[i+1] {
		case strTerm2:
			return i, escapes, nil
		case strEsc2:
			escapes++
			i++
		default:
			return 0, 0, fmt.Errorf("keycodec: invalid escape 0x00 0x%02x", enc[i+1])
		}
	}
	return 0, 0, fmt.Errorf("keycodec: unterminated string key")
}

// unescape appends to dst the value whose escaped body (terminator excluded,
// already validated by scanEscaped) is body.
func unescape[T ~string | ~[]byte](dst []byte, body T) []byte {
	for i := 0; i < len(body); i++ {
		dst = append(dst, body[i])
		if body[i] == strTerm1 {
			i++ // skip the escape's second byte
		}
	}
	return dst
}

// Tuple concatenates already-encoded elements into a composite key. It is a
// convenience for readability at call sites.
func Tuple(elems ...string) string {
	switch len(elems) {
	case 0:
		return ""
	case 1:
		return elems[0]
	}
	var b strings.Builder
	n := 0
	for _, e := range elems {
		n += len(e)
	}
	b.Grow(n)
	for _, e := range elems {
		b.WriteString(e)
	}
	return b.String()
}

// PrefixSuccessor returns the smallest string greater than every string with
// the given prefix, or "" if no such string exists (prefix is all 0xFF).
// It is used to turn a prefix match into a half-open key range
// [prefix, PrefixSuccessor(prefix)).
func PrefixSuccessor(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}
