package reldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"excovery/internal/store/fsio"
)

// Single-file binary format:
//
//	magic "XCRDB1\n"
//	uvarint tableCount
//	per table: name, uvarint colCount, cols (name, type byte),
//	           uvarint rowCount, rows (per value: tag byte + payload)
//	uint32 CRC-32 (IEEE) of everything before the trailer
//
// Strings and blobs are uvarint-length-prefixed. The CRC makes a truncated
// or corrupted experiment file detectable when exchanged between
// researchers (§IV-F: facilitating exchange of experiments).

var magic = []byte("XCRDB1\n")

const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagText
	tagBlob
	tagTime
)

// crcWriter sits below Save's buffer, so the checksum is updated once per
// flushed chunk, not once per value.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// saveBuffer is the size of Save's one buffer: a level-3 file is tens of
// megabytes of small values, and each flush is one write to the target.
const saveBuffer = 256 << 10

// Save writes the database to w.
func (db *DB) Save(w io.Writer) error {
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, saveBuffer)
	// bufio keeps the first write error and returns it from Flush.
	bw.Write(magic)
	writeUvarint(bw, uint64(len(db.order)))
	for _, name := range db.order {
		t := db.tables[name]
		writeString(bw, name)
		writeUvarint(bw, uint64(len(t.schema.Columns)))
		for _, c := range t.schema.Columns {
			writeString(bw, c.Name)
			bw.WriteByte(byte(c.Type))
		}
		writeUvarint(bw, uint64(len(t.rows)))
		for _, row := range t.rows {
			for _, v := range row {
				if err := writeValue(bw, v); err != nil {
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	_, err := w.Write(tail[:])
	return err
}

// Load reads a database previously written by Save.
func Load(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return loadBytes(data)
}

// loadBytes decodes a whole file image. It takes ownership of data: blob
// values of the returned database are views into it, not copies.
func loadBytes(data []byte) (*DB, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("reldb: file too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("reldb: checksum mismatch (corrupted file)")
	}
	rd := &reader{data: body, short: map[string]any{}}
	if string(rd.bytes(len(magic))) != string(magic) {
		return nil, fmt.Errorf("reldb: bad magic")
	}
	db := New()
	nTables := rd.uvarint()
	for i := uint64(0); i < nTables && rd.err == nil; i++ {
		name := rd.string()
		nCols := rd.uvarint()
		s := Schema{Name: name}
		for c := uint64(0); c < nCols && rd.err == nil; c++ {
			cn := rd.string()
			ct := Type(rd.byte())
			s.Columns = append(s.Columns, Column{Name: cn, Type: ct})
		}
		if rd.err != nil {
			break
		}
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
		nRows := rd.uvarint()
		// Every value takes at least its tag byte, which bounds what a
		// damaged count can make Load allocate.
		if nRows > uint64(len(body)-rd.pos)/uint64(len(s.Columns)) {
			rd.err = io.ErrUnexpectedEOF
			break
		}
		// One backing array holds all rows of the table.
		t := db.tables[name]
		n := len(s.Columns)
		vals := make([]any, int(nRows)*n)
		t.rows = make([]Row, 0, nRows)
		for r := 0; r < int(nRows) && rd.err == nil; r++ {
			row := Row(vals[r*n : (r+1)*n : (r+1)*n])
			for c := range row {
				row[c] = rd.value()
				if err := checkValue(s.Columns[c], row[c]); err != nil {
					return nil, err
				}
			}
			t.rows = append(t.rows, row)
		}
	}
	if rd.err != nil {
		return nil, fmt.Errorf("reldb: parse: %w", rd.err)
	}
	return db, nil
}

// SaveFile writes the database to path atomically and durably through the
// store's staged-write helper (temp + fsync + rename + directory fsync): a
// conditioned level-3 database handed to other researchers must survive a
// crash at any point, same as the level-2 artifacts. The encoding streams
// into the temp file; no second copy of the database is built in memory.
func (db *DB) SaveFile(path string) error {
	return fsio.WriteAtomic(path, db.Save)
}

// OpenFile loads a database from path.
func OpenFile(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadBytes(data)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func writeValue(w *bufio.Writer, v any) error {
	switch x := v.(type) {
	case nil:
		w.WriteByte(tagNil)
	case int64:
		b := append(w.AvailableBuffer(), tagInt)
		w.Write(binary.LittleEndian.AppendUint64(b, uint64(x)))
	case float64:
		b := append(w.AvailableBuffer(), tagFloat)
		w.Write(binary.LittleEndian.AppendUint64(b, math.Float64bits(x)))
	case string:
		w.WriteByte(tagText)
		writeString(w, x)
	case []byte:
		w.WriteByte(tagBlob)
		writeUvarint(w, uint64(len(x)))
		w.Write(x)
	case time.Time:
		b := append(w.AvailableBuffer(), tagTime)
		b = binary.LittleEndian.AppendUint64(b, uint64(x.Unix()))
		w.Write(binary.LittleEndian.AppendUint32(b, uint32(x.Nanosecond())))
	default:
		return fmt.Errorf("reldb: cannot persist %T", v)
	}
	return nil
}

type reader struct {
	data []byte
	pos  int
	err  error
	// short holds each distinct short text value once, already boxed: node
	// ids and event types repeat on every row, and a fresh string plus its
	// interface box per occurrence was most of what Load allocated.
	short map[string]any
}

// maxShared is the longest text value Load shares between rows.
const maxShared = 64

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	return string(r.bytes(int(n)))
}

func (r *reader) value() any {
	switch r.byte() {
	case tagNil:
		return nil
	case tagInt:
		b := r.bytes(8)
		if b == nil {
			return nil
		}
		return int64(binary.LittleEndian.Uint64(b))
	case tagFloat:
		b := r.bytes(8)
		if b == nil {
			return nil
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	case tagText:
		b := r.bytes(int(r.uvarint()))
		if len(b) > maxShared {
			return string(b)
		}
		v, ok := r.short[string(b)]
		if !ok {
			v = string(b)
			r.short[string(b)] = v
		}
		return v
	case tagBlob:
		// A view into the file image, capped so that an append by the
		// caller cannot reach the next value.
		b := r.bytes(int(r.uvarint()))
		return b[:len(b):len(b)]
	case tagTime:
		b := r.bytes(12)
		if b == nil {
			return nil
		}
		sec := int64(binary.LittleEndian.Uint64(b[:8]))
		nsec := int64(binary.LittleEndian.Uint32(b[8:]))
		return time.Unix(sec, nsec).UTC()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("unknown value tag")
		}
		return nil
	}
}
