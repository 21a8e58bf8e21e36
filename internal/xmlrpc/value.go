// Package xmlrpc implements the XML-RPC wire protocol [23] used between
// the ExperiMaster and the NodeManagers (§VI-A): marshalling of the XML-RPC
// value types, an HTTP client and an HTTP server with a method registry.
//
// Supported value types and their Go mappings:
//
//	<int>/<i4>            int
//	<boolean>             bool
//	<string> / bare text  string
//	<double>              float64
//	<dateTime.iso8601>    time.Time
//	<base64>              []byte
//	<struct>              map[string]any
//	<array>               []any
//
// Nil parameters are rejected: XML-RPC has no nil in its base spec. An int
// or int64 outside XML-RPC's four-byte signed range is refused on encoding;
// decoding is lenient and reads any <int> that fits a Go int.
package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// iso8601 is the dateTime layout mandated by the XML-RPC specification.
const iso8601 = "20060102T15:04:05"

// Fault is an XML-RPC fault response.
type Fault struct {
	Code   int
	String string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("xmlrpc: fault %d: %s", f.Code, f.String)
}

// normalize widens convenience types ([]string, map[string]string) to the
// canonical []any / map[string]any forms.
func normalize(v any) any {
	switch x := v.(type) {
	case []string:
		conv := make([]any, len(x))
		for i, e := range x {
			conv[i] = e
		}
		return conv
	case map[string]string:
		conv := make(map[string]any, len(x))
		for k, e := range x {
			conv[k] = e
		}
		return conv
	default:
		return v
	}
}

// writeInt writes one XML-RPC <int> element without fmt's interface
// boxing (per-parameter hot on the encode path).
func writeInt(b *bytes.Buffer, x int64) {
	b.WriteString("<int>")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), x, 10))
	b.WriteString("</int>")
}

// checkInt refuses an integer outside XML-RPC's four-byte signed range.
func checkInt(typ string, x int64) error {
	if x > 1<<31-1 || x < -(1<<31) {
		return fmt.Errorf("xmlrpc: %s %d overflows XML-RPC int", typ, x)
	}
	return nil
}

// escapeString writes s as xml.EscapeText writes []byte(s), without the
// copy the conversion costs: the markup characters, tab, newline and
// carriage return as references, invalid UTF-8 and runes XML cannot carry
// as U+FFFD.
func escapeString(b *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					continue
				}
				esc = "\uFFFD"
			}
			b.WriteString(s[last : i-1])
		} else {
			r, width := utf8.DecodeRuneInString(s[i:])
			i += width
			if isXMLChar(r) && (r != utf8.RuneError || width != 1) {
				continue
			}
			esc = "\uFFFD"
			b.WriteString(s[last : i-width])
		}
		b.WriteString(esc)
		last = i
	}
	b.WriteString(s[last:])
}

// encodeValue writes a Go value as an XML-RPC <value> element.
func encodeValue(b *bytes.Buffer, v any) error {
	v = normalize(v)
	b.WriteString("<value>")
	switch x := v.(type) {
	case int:
		if err := checkInt("int", int64(x)); err != nil {
			return err
		}
		writeInt(b, int64(x))
	case int32:
		writeInt(b, int64(x))
	case int64:
		if err := checkInt("int64", x); err != nil {
			return err
		}
		writeInt(b, x)
	case bool:
		if x {
			b.WriteString("<boolean>1</boolean>")
		} else {
			b.WriteString("<boolean>0</boolean>")
		}
	case string:
		b.WriteString("<string>")
		escapeString(b, x)
		b.WriteString("</string>")
	case float64:
		b.WriteString("<double>")
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteString("</double>")
	case float32:
		b.WriteString("<double>")
		b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
		b.WriteString("</double>")
	case time.Time:
		b.WriteString("<dateTime.iso8601>")
		b.Write(x.UTC().AppendFormat(b.AvailableBuffer(), iso8601))
		b.WriteString("</dateTime.iso8601>")
	case []byte:
		b.WriteString("<base64>")
		b.WriteString(base64.StdEncoding.EncodeToString(x))
		b.WriteString("</base64>")
	case map[string]any:
		b.WriteString("<struct>")
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic wire format
		for _, k := range keys {
			b.WriteString("<member><name>")
			escapeString(b, k)
			b.WriteString("</name>")
			if err := encodeValue(b, x[k]); err != nil {
				return err
			}
			b.WriteString("</member>")
		}
		b.WriteString("</struct>")
	case []any:
		b.WriteString("<array><data>")
		for _, e := range x {
			if err := encodeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteString("</data></array>")
	case nil:
		return fmt.Errorf("xmlrpc: cannot encode nil")
	default:
		return fmt.Errorf("xmlrpc: unsupported type %T", v)
	}
	b.WriteString("</value>")
	return nil
}

// xValue mirrors the XML structure of an XML-RPC <value>.
type xValue struct {
	Int      *string  `xml:"int"`
	I4       *string  `xml:"i4"`
	Boolean  *string  `xml:"boolean"`
	Str      *string  `xml:"string"`
	Double   *string  `xml:"double"`
	DateTime *string  `xml:"dateTime.iso8601"`
	Base64   *string  `xml:"base64"`
	Struct   *xStruct `xml:"struct"`
	Array    *xArray  `xml:"array"`
	Raw      string   `xml:",chardata"`
}

type xStruct struct {
	Members []xMember `xml:"member"`
}

type xMember struct {
	Name  string `xml:"name"`
	Value xValue `xml:"value"`
}

type xArray struct {
	Values []xValue `xml:"data>value"`
}

// scalarKind is the type of a scalar element.
type scalarKind uint8

const (
	kindInt scalarKind = iota
	kindBoolean
	kindString
	kindDouble
	kindDateTime
	kindBase64
)

// scalarValue converts the text of a scalar element. Both decoders convert
// through it, so the one-pass scan and encoding/xml agree on every value.
func scalarValue(kind scalarKind, text string) (any, error) {
	switch kind {
	case kindInt:
		return strconv.Atoi(strings.TrimSpace(text))
	case kindBoolean:
		switch strings.TrimSpace(text) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		default:
			return nil, fmt.Errorf("xmlrpc: bad boolean %q", text)
		}
	case kindDouble:
		return strconv.ParseFloat(strings.TrimSpace(text), 64)
	case kindDateTime:
		return time.ParseInLocation(iso8601, strings.TrimSpace(text), time.UTC)
	case kindBase64:
		return base64.StdEncoding.DecodeString(strings.TrimSpace(text))
	default:
		return text, nil
	}
}

// decodeValue converts a parsed xValue into a Go value.
func decodeValue(v xValue) (any, error) {
	switch {
	case v.Int != nil:
		return scalarValue(kindInt, *v.Int)
	case v.I4 != nil:
		return scalarValue(kindInt, *v.I4)
	case v.Boolean != nil:
		return scalarValue(kindBoolean, *v.Boolean)
	case v.Str != nil:
		return scalarValue(kindString, *v.Str)
	case v.Double != nil:
		return scalarValue(kindDouble, *v.Double)
	case v.DateTime != nil:
		return scalarValue(kindDateTime, *v.DateTime)
	case v.Base64 != nil:
		return scalarValue(kindBase64, *v.Base64)
	case v.Struct != nil:
		m := make(map[string]any, len(v.Struct.Members))
		for _, mem := range v.Struct.Members {
			dv, err := decodeValue(mem.Value)
			if err != nil {
				return nil, err
			}
			m[mem.Name] = dv
		}
		return m, nil
	case v.Array != nil:
		arr := make([]any, 0, len(v.Array.Values))
		for _, e := range v.Array.Values {
			dv, err := decodeValue(e)
			if err != nil {
				return nil, err
			}
			arr = append(arr, dv)
		}
		return arr, nil
	default:
		// Untyped <value>text</value> is a string per the spec.
		return v.Raw, nil
	}
}

// faultOf reads a fault response's value: a struct with faultCode and
// faultString members.
func faultOf(v any) (*Fault, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("xmlrpc: malformed fault")
	}
	f := &Fault{}
	if c, ok := m["faultCode"].(int); ok {
		f.Code = c
	}
	if s, ok := m["faultString"].(string); ok {
		f.String = s
	}
	return f, nil
}
