package store

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"excovery/internal/netem"
)

// Encoding and decoding of stored packet lines. Every packet of an
// experiment is written once, scanned by conditioning (capture time and
// source are kept, the rest only checked) and decoded in full
// once more by PacketsOfRun; encoding/json's reflection was most of all
// three. A stored line is what encoding/json writes for a PacketRecord —
// its MarshalJSON is this encoder, so level 2, the level-3 Packets.Data
// blob and the harvest on the control channel share one grammar. Unless a
// string needs an escape or the capture time is not UTC a line has one
// fixed shape:
//
//	line    = '{"time":' time ',"dir":' str [ ',"node":' str ]
//	          ',"id":' uint ',"tag":' uint ',"src":' str ',"dst":' str
//	          payload [ ',"path":[' str { ',' str } ']' ] '}'
//	payload = ',"data":' ( 'null' | str ) | ',"zeros":' uint
//	time    = '"' YYYY-MM-DD 'T' hh:mm:ss [ '.' 1*9 digit ] 'Z"'
//	str     = '"' { valid UTF-8, no byte < 0x20, no '"', no '\' } '"'
//	uint    = '0' | digit1-9 { digit }, within the field's range
//
// with no white space. A payload of 1 to maxZeros bytes that are all zero
// — the background traffic's, most of every case-study capture — is
// stored as its length, "zeros"; every other payload as base64, "data".
// Lines written before the zeros form existed carry such payloads as
// base64 and decode to the same records. appendPacketLine writes every
// record byte for byte as encoding/json writes its packetJSON form
// (FuzzPacketLineEncode), escapes included, and leaves to time.Time's
// MarshalJSON only the capture times RFC 3339 has no 'Z' form for.
// scanPacketLine accepts exactly the fixed shape and gives what
// unmarshalPacketLine gives for it. Any other line — escapes, another key
// order or zone offset, a hand-edited or foreign file — is left to
// encoding/json, so what is accepted, rejected and returned for it does
// not depend on the scanner. FuzzPacketLine holds the two decoders
// together.

// maxZeros is the longest all-zero payload stored by its length. Longer
// ones are stored as base64, so no line makes a decoder allocate more than
// this for a "zeros" field.
const maxZeros = 1 << 16

// appendPacketLine appends the stored line of p and its newline to dst,
// taking the payload's base64 from memo when it holds the same bytes; memo
// may be nil.
func appendPacketLine(dst []byte, p *PacketRecord, memo *payloadMemo) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"time":"`...)
	t0 := len(dst)
	dst = p.Time.AppendFormat(dst, time.RFC3339Nano)
	if dst[t0+len("2006")] != '-' || dst[len(dst)-1] != 'Z' {
		// A year outside 0–9999, which encoding/json refuses, or a zone
		// offset, for which it has checks of its own.
		b, err := p.Time.MarshalJSON()
		if err != nil {
			return dst[:n0], err
		}
		dst = append(dst[:t0-1], b...)
	} else {
		dst = append(dst, '"')
	}
	dst = append(dst, `,"dir":`...)
	dst = appendJSONString(dst, p.Dir)
	if p.Node != "" {
		dst = append(dst, `,"node":`...)
		dst = appendJSONString(dst, p.Node)
	}
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendUint(dst, p.ID, 10)
	dst = append(dst, `,"tag":`...)
	dst = strconv.AppendUint(dst, uint64(p.Tag), 10)
	dst = append(dst, `,"src":`...)
	dst = appendJSONString(dst, p.Src)
	dst = append(dst, `,"dst":`...)
	dst = appendJSONString(dst, p.Dst)
	switch {
	case p.Data == nil:
		dst = append(dst, `,"data":null`...)
	case storedAsZeros(p.Data):
		dst = append(dst, `,"zeros":`...)
		dst = strconv.AppendUint(dst, uint64(len(p.Data)), 10)
	default:
		dst = append(dst, `,"data":"`...)
		dst = memo.appendBase64(dst, p.Data)
		dst = append(dst, '"')
	}
	if len(p.Path) > 0 {
		dst = append(dst, `,"path":`...)
		sep := byte('[')
		for _, hop := range p.Path {
			dst = append(dst, sep)
			dst = appendJSONString(dst, string(hop))
			sep = ','
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// storedAsZeros reports whether data is stored by its length: 1 to
// maxZeros bytes, all zero.
func storedAsZeros(data []byte) bool {
	if len(data) == 0 || len(data) > maxZeros {
		return false
	}
	for ; len(data) >= 8; data = data[8:] {
		if binary.LittleEndian.Uint64(data) != 0 {
			return false
		}
	}
	for _, c := range data {
		if c != 0 {
			return false
		}
	}
	return true
}

// payloadMemo is the last payload a capture file wrote as base64, copied,
// and its base64. A run's captures carry a handful of distinct service
// discovery payloads, each on many lines in a row, so most of those lines
// reuse the encoding of the one before; the all-zero payloads between them
// are stored by length and never reach the memo.
type payloadMemo struct {
	raw, b64 []byte
}

// appendBase64 appends the base64 of data to dst, encoding it only when
// its bytes differ from the memo's. The zero memo holds the empty payload;
// a nil memo encodes every time.
func (m *payloadMemo) appendBase64(dst, data []byte) []byte {
	if m == nil {
		return base64.StdEncoding.AppendEncode(dst, data)
	}
	if !bytes.Equal(data, m.raw) {
		m.raw = append(m.raw[:0], data...)
		m.b64 = base64.StdEncoding.AppendEncode(m.b64[:0], data)
	}
	return append(dst, m.b64...)
}

// MarshalJSON is the stored line of p without its newline: encoding/json
// writes a harvest as level 2 stores it.
func (p PacketRecord) MarshalJSON() ([]byte, error) {
	b, err := appendPacketLine(nil, &p, nil)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// UnmarshalJSON decodes a stored line, either payload form.
func (p *PacketRecord) UnmarshalJSON(b []byte) error {
	_, err := decodePacketLine(b, p)
	return err
}

// packetJSON is a stored line as encoding/json sees it: PacketRecord's
// fields without its methods, and the payload as "data" or "zeros". A
// null or absent "data" is a nil payload.
type packetJSON struct {
	Time  time.Time      `json:"time"`
	Dir   string         `json:"dir"`
	Node  string         `json:"node,omitempty"`
	ID    uint64         `json:"id"`
	Tag   uint16         `json:"tag"`
	Src   string         `json:"src"`
	Dst   string         `json:"dst"`
	Data  *[]byte        `json:"data,omitempty"`
	Zeros *int           `json:"zeros,omitempty"`
	Path  []netem.NodeID `json:"path,omitempty"`
}

var (
	errZerosRange = errors.New("store: packet zeros out of range")
	errZerosData  = errors.New("store: packet has both data and zeros")
)

// unmarshalPacketLine decodes any line through encoding/json into p.
func unmarshalPacketLine(line []byte, p *PacketRecord) error {
	*p = PacketRecord{}
	var w packetJSON
	if err := json.Unmarshal(line, &w); err != nil {
		return err
	}
	var data []byte
	if w.Data != nil {
		data = *w.Data
	}
	if w.Zeros != nil {
		if *w.Zeros < 1 || *w.Zeros > maxZeros {
			return errZerosRange
		}
		if data != nil {
			return errZerosData
		}
		data = make([]byte, *w.Zeros)
	}
	*p = PacketRecord{Time: w.Time, Dir: w.Dir, Node: w.Node, ID: w.ID, Tag: w.Tag,
		Src: w.Src, Dst: w.Dst, Data: data, Path: w.Path}
	return nil
}

// decodePacketLine decodes one stored line into p. fallback reports that
// the line was not of the fixed shape and went through encoding/json.
func decodePacketLine(line []byte, p *PacketRecord) (fallback bool, err error) {
	if scanPacketLine(line, p, false) {
		return false, nil
	}
	return true, unmarshalPacketLine(line, p)
}

// decodePacketMeta decodes only the capture time and the source of one
// stored line: conditioning stores the line itself as the Packets.Data
// blob, so the other fields are only checked: it fails on exactly the
// lines decodePacketLine fails on.
func decodePacketMeta(line []byte) (t time.Time, src string, fallback bool, err error) {
	var p PacketRecord
	if scanPacketLine(line, &p, true) {
		return p.Time, p.Src, false, nil
	}
	err = unmarshalPacketLine(line, &p)
	return p.Time, p.Src, true, err
}

// scanPacketLine parses a line of the fixed shape into p; with metaOnly
// only p.Time and p.Src are set. It reports false, with p in no particular
// state, for every other line.
func scanPacketLine(line []byte, p *PacketRecord, metaOnly bool) bool {
	s := lineScanner{b: line}
	var ok bool
	if !s.lit(`{"time":"`) {
		return false
	}
	if p.Time, ok = s.time(); !ok || !s.lit(`,"dir":`) {
		return false
	}
	dir, ok := s.str()
	if !ok {
		return false
	}
	var node []byte
	if s.lit(`,"node":`) {
		if node, ok = s.str(); !ok {
			return false
		}
	}
	if !s.lit(`,"id":`) {
		return false
	}
	id, ok := s.uint(1<<64 - 1)
	if !ok || !s.lit(`,"tag":`) {
		return false
	}
	tag, ok := s.uint(1<<16 - 1)
	if !ok || !s.lit(`,"src":`) {
		return false
	}
	src, ok := s.str()
	if !ok || !s.lit(`,"dst":`) {
		return false
	}
	dst, ok := s.str()
	if !ok {
		return false
	}
	var data []byte
	switch {
	case s.lit(`,"zeros":`):
		n, ok := s.uint(maxZeros)
		if !ok || n == 0 {
			return false
		}
		if !metaOnly {
			data = make([]byte, n)
		}
	case !s.lit(`,"data":`):
		return false
	case !s.lit(`null`):
		enc, ok := s.str()
		if !ok {
			return false
		}
		// Decoded with metaOnly too: conditioning refuses what
		// PacketsOfRun would.
		data = make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
		n, err := base64.StdEncoding.Decode(data, enc)
		if err != nil {
			return false
		}
		data = data[:n]
	}
	var path []netem.NodeID
	if s.lit(`,"path":[`) {
		// A path is a few hops: gather them on the stack and give the
		// record one slice of the path's length, not a grown one.
		var buf [8]netem.NodeID
		hops := buf[:0]
		for {
			hop, ok := s.str()
			if !ok {
				return false
			}
			if !metaOnly {
				hops = append(hops, netem.NodeID(hop))
			}
			if s.lit(`]`) {
				break
			}
			if !s.lit(`,`) {
				return false
			}
		}
		if !metaOnly {
			path = slices.Clone(hops)
		}
	}
	if !s.lit(`}`) || s.i != len(s.b) {
		return false
	}
	p.Src = string(src)
	if metaOnly {
		return true
	}
	switch string(dir) {
	case "tx":
		p.Dir = "tx"
	case "rx":
		p.Dir = "rx"
	default:
		p.Dir = string(dir)
	}
	p.Node, p.Dst = string(node), string(dst)
	p.ID, p.Tag = id, uint16(tag)
	p.Data, p.Path = data, path
	return true
}

// lineScanner is a cursor over one line.
type lineScanner struct {
	b []byte
	i int
}

// lit consumes x if the input continues with it.
func (s *lineScanner) lit(x string) bool {
	if len(s.b)-s.i < len(x) || string(s.b[s.i:s.i+len(x)]) != x {
		return false
	}
	s.i += len(x)
	return true
}

// str consumes a quoted string without escapes and returns its content as
// a view into the line. A payload is hundreds of base64 bytes, so it steps
// a word at a time while no byte of the word needs a look, and byte by
// byte from the first word that has one.
func (s *lineScanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	j := start
	for ; len(s.b)-j >= 8; j += 8 {
		if special(binary.LittleEndian.Uint64(s.b[j:])) {
			break
		}
	}
	ascii := true // every byte the words above skipped is ASCII
	for ; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			seg := s.b[start:j]
			// encoding/json replaces invalid UTF-8 by U+FFFD.
			return seg, ascii || utf8.Valid(seg)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// special reports whether any of the eight bytes of w is one str must look
// at: '"', '\\', a control byte below 0x20 or a byte of 0x80 and above. A
// byte x is '"' when x^'"' is zero, and x-1 borrows into the high bit only
// for zero; x < 0x20 when x-0x20 borrows. A borrow that runs on into the
// bytes above only ever follows a byte that is flagged itself.
func special(w uint64) bool {
	q := w ^ (ones * '"')
	b := w ^ (ones * '\\')
	return (w|((q-ones)&^q)|((b-ones)&^b)|((w-ones*0x20)&^w))&highs != 0
}

// uint consumes a decimal number in JSON's form that is at most max.
func (s *lineScanner) uint(max uint64) (uint64, bool) {
	start := s.i
	var v uint64
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := s.i - start
	return v, n > 0 && (n == 1 || s.b[start] != '0')
}

// fixedInt reads an all-digit field; -1 if it is not one.
func fixedInt(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// time consumes an RFC 3339 UTC timestamp and its closing quote; the
// opening quote is already consumed.
func (s *lineScanner) time() (time.Time, bool) {
	b := s.b[s.i:]
	// "2006-01-02T15:04:05" is 19 bytes, then fraction, 'Z' and the quote.
	if len(b) < 21 || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	year, month, day := fixedInt(b[0:4]), fixedInt(b[5:7]), fixedInt(b[8:10])
	hour, min, sec := fixedInt(b[11:13]), fixedInt(b[14:16]), fixedInt(b[17:19])
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 59 {
		return time.Time{}, false
	}
	i, nsec := 19, 0
	if b[i] == '.' {
		i++
		digits := 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			nsec = nsec*10 + int(b[i]-'0')
			digits++
		}
		if digits < 1 || digits > 9 {
			return time.Time{}, false
		}
		for ; digits < 9; digits++ {
			nsec *= 10
		}
	}
	if len(b)-i < 2 || b[i] != 'Z' || b[i+1] != '"' {
		return time.Time{}, false
	}
	s.i += i + 2
	return time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC), true
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}
