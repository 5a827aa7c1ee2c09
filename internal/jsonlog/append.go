package jsonlog

// Field writers of the plan-driven writer (encode.go), and the scanners the
// readers share. Each writer appends exactly the bytes encoding/json would
// produce for the value; what it cannot copy straight through it hands to
// encoding/json. The point is AppendRaw: a result payload that is already
// compact JSON is checked in one pass and copied, not re-scanned by
// encoding/json's state machine and rewritten byte by byte.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
)

// ascii is whether a byte stands for itself inside a string encoding/json
// writes: printable ASCII but '"', '\\', '<', '>' and '&'. A table, because a
// byte-by-byte test of the seven is most of what a key or a payload's member
// names cost.
var ascii = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !ascii[s[i]] {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, exponent form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one. NaN and infinities are
// encoding/json's error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// AppendRaw appends raw as encoding/json writes a json.RawMessage: the
// value compacted and HTML-escaped, or an error if it is not valid JSON.
// Bytes that are already in that form — every payload the store holds — are
// copied.
func AppendRaw(b, raw []byte) ([]byte, error) {
	if verbatim(raw) {
		return append(b, raw...), nil
	}
	enc, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

// verbatim reports whether raw is one JSON value that encoding/json would
// emit unchanged: valid, no whitespace between tokens and, inside strings,
// none of '<', '>', '&' or 0xE2 (the lead byte of U+2028/9), which HTML
// escaping rewrites. It accepts no invalid JSON; whatever it rejects — a
// string with an escape in it, too — is encoding/json's to judge.
func verbatim(raw []byte) bool { return value(raw, 0, 0) == len(raw) }

// zeroRun is the bytes "0,0,0,0," read as a little-endian word: four empty
// histogram buckets, each followed by another element.
const zeroRun = 0x2c302c302c302c30

// value returns the index after the value at raw[i], or -1.
func value(raw []byte, i, depth int) int {
	if i >= len(raw) || depth > 64 {
		return -1
	}
	switch c := raw[i]; {
	case c == '"':
		return plainString(raw, i)
	case c == '-' || c-'0' <= 9:
		return number(raw, i)
	case c == '{' || c == '[':
		closer := c + 2 // in ASCII, of either
		if i++; i < len(raw) && raw[i] == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i = plainString(raw, i); i < 0 || i == len(raw) || raw[i] != ':' {
					return -1
				}
				i++
			}
			// Most of a result is histogram buckets: runs of one-digit
			// elements, mostly empty ones, which go four to a word.
			for c == '[' && i+2 < len(raw) && raw[i]-'0' <= 9 && raw[i+1] == ',' {
				if i+8 < len(raw) && binary.LittleEndian.Uint64(raw[i:]) == zeroRun {
					i += 8
				} else {
					i += 2
				}
			}
			if i = value(raw, i, depth+1); i < 0 || i == len(raw) || raw[i] != ',' && raw[i] != closer {
				return -1
			}
			if i++; raw[i-1] == closer {
				return i
			}
		}
	}
	for _, lit := range []string{"true", "false", "null"} {
		if len(raw)-i >= len(lit) && string(raw[i:i+len(lit)]) == lit {
			return i + len(lit)
		}
	}
	return -1
}

// plainString returns the index after the string at raw[i], or -1 if there
// is none or it holds anything but bytes that stand for themselves.
func plainString(raw []byte, i int) int {
	if i >= len(raw) || raw[i] != '"' {
		return -1
	}
	for i++; i < len(raw); i++ {
		if c := raw[i]; !ascii[c] && (c < 0x80 || c == 0xE2) {
			if c == '"' {
				return i + 1
			}
			return -1
		}
	}
	return -1
}

// VerbatimLen returns the length of the JSON value b starts with if verbatim
// accepts it — a json.RawMessage decoded from it holds those bytes — else -1.
func VerbatimLen(b []byte) int { return value(b, 0, 0) }

// NumberLen returns the length of the JSON number b starts with, or -1 if
// it starts with none. What follows the number is the caller's to check.
func NumberLen(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return number(b, 0)
}

// PlainLen returns the length of the JSON string body at the start of b —
// up to its closing quote — if every byte of it is ASCII that stands for
// itself (no escape, no control byte), and -1 otherwise.
func PlainLen(b []byte) int {
	for i, c := range b {
		if c == '"' {
			return i
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return -1
		}
	}
	return -1
}

// number returns the index after the JSON number at raw[i], or -1.
func number(raw []byte, i int) int {
	if raw[i] == '-' {
		i++
	}
	if i < len(raw) && raw[i] == '0' {
		i++
	} else if i = digits(raw, i); i < 0 {
		return -1
	}
	if i < len(raw) && raw[i] == '.' {
		if i = digits(raw, i+1); i < 0 {
			return -1
		}
	}
	if i < len(raw) && raw[i]|0x20 == 'e' {
		if i++; i < len(raw) && (raw[i] == '+' || raw[i] == '-') {
			i++
		}
		i = digits(raw, i)
	}
	return i
}

// digits returns the index after the run of digits at raw[i], or -1 if
// there is none.
func digits(raw []byte, i int) int {
	start := i
	for i < len(raw) && raw[i]-'0' <= 9 {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// CutInt parses a leading JSON integer (-?(0|[1-9][0-9]*)) that fits an
// int64 and returns what follows it.
func CutInt(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i-start == 19 { // more digits than MaxInt64 has: u would wrap
			return 0, nil, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if n := i - start; n == 0 || (n > 1 && b[start] == '0') || u > limit {
		return 0, nil, false
	}
	if neg {
		return -int64(u), b[i:], true
	}
	return int64(u), b[i:], true
}

// CutUint is CutInt for an unsigned field, (0|[1-9][0-9]*) within uint64 —
// all twenty digits of it, which half of all 64-bit seeds have.
func CutUint(b []byte) (u uint64, rest []byte, ok bool) {
	n := 0
	for n < len(b) && b[n]-'0' <= 9 {
		n++
	}
	u, err := strconv.ParseUint(string(b[:n]), 10, 64) // refuses "" and a value that would wrap
	return u, b[n:], err == nil && (n == 1 || b[0] != '0')
}
