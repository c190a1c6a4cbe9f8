package core

// JSON appender for Operation: the API's reply encoding without
// reflection. The JSON tags on Operation define the wire format, and
// encoding/json is its reference implementation; this file produces
// the same bytes json.Marshal would — field order, omitempty and
// omitzero, sorted map keys, HTML-safe string escaping, U+FFFD for
// invalid UTF-8, escaped U+2028/U+2029, the ES6 float format and RFC
// 3339 times — while appending into a caller's buffer.
//
// The fast path covers the values the daemon itself produces: the
// types JSON decoding yields for Params (string, float64, bool, nil,
// map[string]any, []any) plus Go ints, and a Result already in compact
// HTML-safe form. Anything else is handed to encoding/json for that one
// value, so the output stays identical for every input; where
// encoding/json fails (NaN, an invalid Result, a year outside
// 0–9999), the appender fails too. The api package's
// FuzzEnvelopeEncoding pins the identity.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// jsonMaxDepth is the Params nesting depth beyond which a value is
// handed to encoding/json, whose cycle detection turns a
// self-referencing map into an error instead of unbounded recursion.
const jsonMaxDepth = 64

// jsonSafeASCII marks the ASCII bytes encoding/json copies through
// unescaped with HTML escaping on: 0x20–0x7F except '"', '\\', '<',
// '>' and '&'.
var jsonSafeASCII = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

const jsonHex = "0123456789abcdef"

// AppendJSON appends the JSON encoding of op to dst — byte for byte
// what json.Marshal(op) returns — and returns the extended slice. A nil
// op encodes as null. It fails exactly where json.Marshal fails, and
// leaves dst's contents untouched in that case.
func (op *Operation) AppendJSON(dst []byte) ([]byte, error) {
	if op == nil {
		return append(dst, "null"...), nil
	}
	orig := dst
	var err error
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, op.ID)
	dst = append(dst, `,"kind":`...)
	dst = AppendJSONString(dst, op.Kind)
	if len(op.Params) > 0 {
		dst = append(dst, `,"params":`...)
		if dst, err = appendJSONMap(dst, op.Params, 0); err != nil {
			return orig, err
		}
	}
	dst = append(dst, `,"status":`...)
	dst = AppendJSONString(dst, string(op.Status))
	if len(op.Result) > 0 {
		dst = append(dst, `,"result":`...)
		if dst, err = appendJSONRaw(dst, op.Result); err != nil {
			return orig, err
		}
	}
	if op.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = AppendJSONString(dst, op.Error)
	}
	if op.Priority != "" {
		dst = append(dst, `,"priority":`...)
		dst = AppendJSONString(dst, string(op.Priority))
	}
	if op.Client != "" {
		dst = append(dst, `,"client":`...)
		dst = AppendJSONString(dst, op.Client)
	}
	if op.Deadline != 0 {
		dst = append(dst, `,"deadline_ns":`...)
		dst = strconv.AppendInt(dst, int64(op.Deadline), 10)
	}
	dst = append(dst, `,"created_at":`...)
	if dst, err = appendJSONTime(dst, op.CreatedAt); err != nil {
		return orig, err
	}
	dst = append(dst, `,"updated_at":`...)
	if dst, err = appendJSONTime(dst, op.UpdatedAt); err != nil {
		return orig, err
	}
	if !op.CancelledAt.IsZero() {
		dst = append(dst, `,"cancelled_at":`...)
		if dst, err = appendJSONTime(dst, op.CancelledAt); err != nil {
			return orig, err
		}
	}
	return append(dst, '}'), nil
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: '<', '>', '&' and control bytes as
// \u00XX escapes (bar the short forms \b \f \n \r \t), invalid UTF-8
// as an escaped U+FFFD, and U+2028/U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafeASCII[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONValue appends one Params value at the given nesting depth.
func appendJSONValue(dst []byte, v any, depth int) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return AppendJSONString(dst, v), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case float64:
		return appendJSONFloat(dst, v)
	case int:
		return strconv.AppendInt(dst, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(dst, v, 10), nil
	case map[string]any:
		if depth < jsonMaxDepth {
			return appendJSONMap(dst, v, depth+1)
		}
	case []any:
		if depth < jsonMaxDepth {
			return appendJSONArray(dst, v, depth+1)
		}
	}
	return appendJSONMarshal(dst, v)
}

// appendJSONMap appends m with its keys in sorted order.
func appendJSONMap(dst []byte, m map[string]any, depth int) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendJSONValue(dst, m[k], depth); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendJSONArray(dst []byte, a []any, depth int) ([]byte, error) {
	if a == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendJSONValue(dst, v, depth); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendJSONFloat mirrors encoding/json's float64 format: like %g but
// with ES6 exponent cut-offs ('e' below 1e-6 and from 1e21) and no
// zero-padded exponent.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONTime appends t as a quoted RFC 3339 time with nanoseconds,
// failing like time.Time.MarshalJSON on a year outside 0–9999 or a zone
// offset of 24 hours or more.
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	b, err := t.AppendText(append(dst, '"'))
	if err != nil {
		return dst, err
	}
	return append(b, '"'), nil
}

// appendJSONRaw appends a pre-encoded Result. encoding/json compacts a
// RawMessage and HTML-escapes it, so a Result that is valid JSON with
// no whitespace, no '<', '>' or '&', and no U+2028/U+2029 lead byte is
// copied as is; any other is left to encoding/json.
func appendJSONRaw(dst []byte, raw []byte) ([]byte, error) {
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return appendJSONMarshal(dst, json.RawMessage(raw))
		}
	}
	if !json.Valid(raw) {
		return appendJSONMarshal(dst, json.RawMessage(raw))
	}
	return append(dst, raw...), nil
}

// appendJSONMarshal is the fallback: encoding/json encodes v.
func appendJSONMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}
