package xmlrpc

import (
	"bytes"
	"encoding/xml"
	"strings"
	"unicode/utf8"
)

// One-pass decoding of the documents this package writes. Every control
// call is decoded twice, once by the host and once, as a response, by the
// master; encoding/xml's reflection decoder and the garbage it leaves were
// most of the cost of a call. EncodeCall, EncodeResponse and EncodeFault
// write one shape, read here in a single forward scan:
//
//	call     = [ header ] ws "<methodCall>" ws "<methodName>" text "</methodName>"
//	           ws "<params>" ws { "<param>" ws value ws "</param>" ws } "</params>"
//	           ws "</methodCall>"
//	response = [ header ] ws "<methodResponse>" ws
//	           ( "<params>" ws "<param>" ws value ws "</param>" ws "</params>"
//	           | "<fault>" ws value ws "</fault>" ) ws "</methodResponse>"
//	value    = "<value>" ( text | ws typed ws ) "</value>"
//	typed    = "<" scalar ">" text "</" scalar ">"
//	         | "<struct>" ws { "<member>" ws "<name>" text "</name>" ws value ws
//	           "</member>" ws } "</struct>"
//	         | "<array>" ws "<data>" ws { value ws } "</data>" ws "</array>"
//	scalar   = "int" | "i4" | "boolean" | "string" | "double"
//	         | "dateTime.iso8601" | "base64"
//	header   = xml.Header
//	ws       = { " " | "\t" | "\n" }
//	text     = { ASCII from " " up but "<", ">" and "&" | "\t" | "\n" | other | ref }
//	ref      = "&lt;" | "&gt;" | "&amp;" | "&apos;" | "&quot;"
//	         | "&#" digit { digit } ";" | "&#x" hex { hex } ";"
//
// where other is valid UTF-8 of a character beyond ASCII that XML allows, a
// ref stands for one character XML allows, and nothing follows the root
// element. That is every document the encoders write: they replace what XML
// cannot carry by U+FFFD. Scalars convert through scalarValue, as on the
// encoding/xml path. Anything else — another prolog, comments, CDATA,
// attributes, empty tags, mixed content, "\r", control bytes, invalid
// UTF-8, trailing bytes, a value that does not convert, a fault that is not
// a struct — is "not canonical", and the document goes to encoding/xml from
// its first byte.
//
// The one-pass path only ever answers with a success, so every error, every
// refusal and every other peer's dialect (Python's xmlrpc.client writes
// <?xml version='1.0'?>) behaves as encoding/xml makes it.
// FuzzDecodeCall and FuzzDecodeResponse hold the two paths together.

// maxScanDepth bounds the nesting of structs and arrays the scan follows; a
// deeper document is left to encoding/xml and its own depth limit.
const maxScanDepth = 64

// plainText marks the bytes text passes through unchanged.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['<'], t['>'], t['&'] = false, false, false
	t['\t'], t['\n'] = true, true
	return t
}()

// scalarKinds maps the scalar element names to their kinds.
var scalarKinds = map[string]scalarKind{
	"int": kindInt, "i4": kindInt, "boolean": kindBoolean, "string": kindString,
	"double": kindDouble, "dateTime.iso8601": kindDateTime, "base64": kindBase64,
}

// docScanner is a cursor over one document.
type docScanner struct {
	b     []byte
	i     int
	depth int
}

// at reports whether the input continues with x.
func (s *docScanner) at(x string) bool {
	return len(s.b)-s.i >= len(x) && string(s.b[s.i:s.i+len(x)]) == x
}

// lit consumes x if the input continues with it.
func (s *docScanner) lit(x string) bool {
	if !s.at(x) {
		return false
	}
	s.i += len(x)
	return true
}

// ws consumes white space between elements.
func (s *docScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n') {
		s.i++
	}
}

// prolog consumes the optional header and the white space after it.
func (s *docScanner) prolog() {
	s.lit(xml.Header)
	s.ws()
}

// text consumes character data up to the next '<' and returns it with the
// references replaced.
func (s *docScanner) text() (string, bool) {
	seg := s.b[s.i:]
	n := bytes.IndexByte(seg, '<')
	if n < 0 {
		return "", false
	}
	seg = seg[:n]
	for j := 0; j < len(seg); {
		if plainText[seg[j]] {
			j++
			continue
		}
		switch w := plainLen(seg[j:]); {
		case w > 0:
			j += w
		case seg[j] == '&':
			t, ok := refText(seg, j)
			if ok {
				s.i += n
			}
			return t, ok
		default:
			return "", false
		}
	}
	s.i += n
	return string(seg), true
}

// plainLen is the length of the character b starts with if text passes it
// through unchanged, else 0: ASCII from space up but the markup characters,
// tab, newline, and valid UTF-8 of a character XML allows.
func plainLen(b []byte) int {
	if c := b[0]; c < utf8.RuneSelf {
		if plainText[c] {
			return 1
		}
		return 0
	}
	r, w := utf8.DecodeRune(b)
	if (r == utf8.RuneError && w == 1) || !isXMLChar(r) {
		return 0
	}
	return w
}

// refText decodes seg, whose first reference is at j. What it writes is
// never longer than what it reads.
func refText(seg []byte, j int) (string, bool) {
	var out strings.Builder
	out.Grow(len(seg))
	out.Write(seg[:j])
	for j < len(seg) {
		if seg[j] == '&' {
			r, n := ref(seg[j:])
			if n == 0 {
				return "", false
			}
			out.WriteRune(r)
			j += n
			continue
		}
		k := j
		for k < len(seg) && plainText[seg[k]] {
			k++
		}
		if k == j {
			if k += plainLen(seg[j:]); k == j {
				return "", false
			}
		}
		out.Write(seg[j:k])
		j = k
	}
	return out.String(), true
}

// ref decodes the reference b starts with: the rune and the bytes it took,
// or 0 bytes when it is not one the scan reads.
func ref(b []byte) (rune, int) {
	if len(b) < 2 || b[1] != '#' {
		for _, e := range [...]struct {
			name string
			r    rune
		}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
			if len(b) >= len(e.name) && string(b[:len(e.name)]) == e.name {
				return e.r, len(e.name)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if len(b) > 2 && b[2] == 'x' {
		i, base = 3, 16
	}
	start := i
	var r rune
	for ; i < len(b); i++ {
		d := digitVal(b[i])
		if d >= base {
			break
		}
		if r = r*base + d; r > utf8.MaxRune {
			return 0, 0
		}
	}
	if i == start || i == len(b) || b[i] != ';' || !isXMLChar(r) {
		return 0, 0
	}
	return r, i + 1
}

// digitVal is the value of a hexadecimal digit, 16 for any other byte.
func digitVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// isXMLChar reports whether r is in the Char production of XML 1.0.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// value consumes one <value> element.
func (s *docScanner) value() (any, bool) {
	if !s.lit("<value>") {
		return nil, false
	}
	mark := s.i
	s.ws()
	if s.at("<") && !s.at("</value>") {
		v, ok := s.typed()
		if !ok {
			return nil, false
		}
		s.ws()
		return v, s.lit("</value>")
	}
	// Untyped <value>text</value> is a string per the spec.
	s.i = mark
	t, ok := s.text()
	return t, ok && s.lit("</value>")
}

// typed consumes the one typed element of a value.
func (s *docScanner) typed() (any, bool) {
	s.i++ // '<'
	n := bytes.IndexByte(s.b[s.i:], '>')
	if n < 0 {
		return nil, false
	}
	name := s.b[s.i : s.i+n]
	s.i += n + 1
	if string(name) == "struct" || string(name) == "array" {
		if s.depth >= maxScanDepth {
			return nil, false
		}
		s.depth++
		var v any
		var ok bool
		if name[0] == 's' {
			v, ok = s.structValue()
		} else {
			v, ok = s.arrayValue()
		}
		s.depth--
		return v, ok
	}
	kind, ok := scalarKinds[string(name)]
	if !ok {
		return nil, false
	}
	t, ok := s.text()
	if !ok || !s.lit("</") || !bytes.HasPrefix(s.b[s.i:], name) {
		return nil, false
	}
	s.i += len(name)
	if !s.lit(">") {
		return nil, false
	}
	v, err := scalarValue(kind, t)
	return v, err == nil
}

// structValue consumes a struct's members and its end tag.
func (s *docScanner) structValue() (any, bool) {
	m := make(map[string]any)
	for {
		s.ws()
		if s.lit("</struct>") {
			return m, true
		}
		if !s.lit("<member>") {
			return nil, false
		}
		s.ws()
		if !s.lit("<name>") {
			return nil, false
		}
		k, ok := s.text()
		if !ok || !s.lit("</name>") {
			return nil, false
		}
		s.ws()
		v, ok := s.value()
		if !ok {
			return nil, false
		}
		s.ws()
		if !s.lit("</member>") {
			return nil, false
		}
		m[k] = v
	}
}

// arrayValue consumes an array's data and its end tag.
func (s *docScanner) arrayValue() (any, bool) {
	s.ws()
	if !s.lit("<data>") {
		return nil, false
	}
	arr := []any{}
	for {
		s.ws()
		if s.lit("</data>") {
			break
		}
		v, ok := s.value()
		if !ok {
			return nil, false
		}
		arr = append(arr, v)
	}
	s.ws()
	return arr, s.lit("</array>")
}

// wrapped consumes one value between the tags start and end, with white
// space allowed around it.
func (s *docScanner) wrapped(start, end string) (any, bool) {
	if !s.lit(start) {
		return nil, false
	}
	s.ws()
	v, ok := s.value()
	if !ok {
		return nil, false
	}
	s.ws()
	return v, s.lit(end)
}

// scanCall decodes a methodCall of the canonical shape; ok is false for
// every other document.
func scanCall(data []byte) (method string, params []any, ok bool) {
	s := docScanner{b: data}
	s.prolog()
	if !s.lit("<methodCall>") {
		return "", nil, false
	}
	s.ws()
	if !s.lit("<methodName>") {
		return "", nil, false
	}
	if method, ok = s.text(); !ok || method == "" || !s.lit("</methodName>") {
		return "", nil, false
	}
	s.ws()
	if !s.lit("<params>") {
		return "", nil, false
	}
	for {
		s.ws()
		if s.lit("</params>") {
			break
		}
		v, ok := s.wrapped("<param>", "</param>")
		if !ok {
			return "", nil, false
		}
		params = append(params, v)
	}
	s.ws()
	if !s.lit("</methodCall>") || s.i != len(s.b) {
		return "", nil, false
	}
	return method, params, true
}

// scanResponse decodes a methodResponse of the canonical shape into its
// result or its fault; ok is false for every other document.
func scanResponse(data []byte) (result any, fault *Fault, ok bool) {
	s := docScanner{b: data}
	s.prolog()
	if !s.lit("<methodResponse>") {
		return nil, nil, false
	}
	s.ws()
	if s.at("<fault>") {
		v, ok := s.wrapped("<fault>", "</fault>")
		if !ok {
			return nil, nil, false
		}
		f, err := faultOf(v)
		if err != nil {
			return nil, nil, false
		}
		fault = f
	} else {
		if !s.lit("<params>") {
			return nil, nil, false
		}
		s.ws()
		if result, ok = s.wrapped("<param>", "</param>"); !ok {
			return nil, nil, false
		}
		s.ws()
		if !s.lit("</params>") {
			return nil, nil, false
		}
	}
	s.ws()
	if !s.lit("</methodResponse>") || s.i != len(s.b) {
		return nil, nil, false
	}
	return result, fault, true
}
