package store

import (
	"slices"
	"unicode/utf8"
)

// Hand-rolled JSON encoding of the Parameter column. Conditioning
// serializes every event's parameter map, which made encoding/json's
// reflection (map iteration, key sorting, interface boxing) one of the
// largest allocation sources of the whole workflow. The output must stay
// byte-identical to json.Marshal(map[string]string) — existing level-3
// databases were written with it and DecodeParams still round-trips
// through encoding/json — so appendJSONString replicates the default
// encoder's escaping exactly (including HTML escaping and U+2028/2029);
// TestEncodeParamsMatchesJSON pins the equivalence.

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping exactly
// like encoding/json's default (HTML-escaping) encoder.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
				// Other control characters, plus <, >, & (HTML escaping).
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// encodeParams serializes event parameters for the Parameter column with
// deterministic key order, byte-identical to json.Marshal.
func encodeParams(p map[string]string) string {
	if len(p) == 0 {
		return ""
	}
	n := 2 // braces
	for k, v := range p {
		n += len(k) + len(v) + 6 // quotes, colon, comma; escapes grow on demand
	}
	return string(appendParams(make([]byte, 0, n), p))
}

// appendParams appends p as json.Marshal writes a map[string]string: an
// object with its keys in sorted order, "{}" when p is empty.
func appendParams(dst []byte, p map[string]string) []byte {
	var small [8]string
	keys := small[:0]
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		dst = appendJSONString(dst, p[k])
	}
	return append(dst, '}')
}
