package reldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSaveRejectsUnsupportedType(t *testing.T) {
	if err := writeValue(bufio.NewWriter(io.Discard), struct{}{}); err == nil {
		t.Fatal("struct value persisted")
	}
}

func TestLoadBadMagic(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	copy(data, "BADMAG!")
	// Recompute nothing: the checksum now mismatches, which is the
	// expected first line of defence.
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestLoadTruncated(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Text}}})
	for i := 0; i < 10; i++ {
		db.Insert("T", Row{"some text value"})
	}
	var buf bytes.Buffer
	db.Save(&buf)
	data := buf.Bytes()
	for _, cut := range []int{1, 8, len(data) / 2, len(data) - 5} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(t.TempDir() + "/nope.xcdb"); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}})
	if err := db.SaveFile("/nonexistent-dir-xyz/f.xcdb"); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestTimePrecisionPreserved(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "t", Type: Time}}})
	want := time.Date(2014, 5, 19, 23, 59, 59, 999999999, time.UTC)
	db.Insert("T", Row{want})
	var buf bytes.Buffer
	db.Save(&buf)
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db2.Select(Query{Table: "T"})
	if got := rows[0][0].(time.Time); !got.Equal(want) {
		t.Fatalf("time = %v, want %v (nanosecond precision)", got, want)
	}
}

func TestEmptyDatabaseRoundTrip(t *testing.T) {
	db := New()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Tables()) != 0 {
		t.Fatalf("tables = %v", db2.Tables())
	}
}

// blobDB has the value kinds Load treats specially: blobs are views into
// the file image, so neighbours must be out of an append's reach.
func blobDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.CreateTable(Schema{Name: "B", Columns: []Column{
		{Name: "k", Type: Int64}, {Name: "b", Type: Blob}, {Name: "s", Type: Text},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := db.Insert("B", Row{i, bytes.Repeat([]byte{byte(i)}, int(i%7)), "after"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSaveFileMatchesSave pins the streamed file write to the in-memory
// encoding: SaveFile must put on disk exactly what Save hands a writer.
func TestSaveFileMatchesSave(t *testing.T) {
	db := blobDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.xcdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatalf("SaveFile wrote %d bytes, Save %d, or they differ", len(onDisk), buf.Len())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestLoadedBlobsDoNotOverlap appends to every blob of a loaded database
// and checks that no other value changed.
func TestLoadedBlobsDoNotOverlap(t *testing.T) {
	db := blobDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want, _ := db.Select(Query{Table: "B"})
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db2.Select(Query{Table: "B"})
	for _, r := range rows {
		_ = append(r[1].([]byte), "XXXXXXXX"...)
	}
	got, _ := db2.Select(Query{Table: "B"})
	for i := range want {
		if !bytes.Equal(got[i][1].([]byte), want[i][1].([]byte)) || got[i][0] != want[i][0] || got[i][2] != want[i][2] {
			t.Fatalf("row %d changed by an append to a blob: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestOpenFileRefusesDamage: a truncated file and one with a flipped bit
// are refused by OpenFile itself, so nothing above it (schema check,
// indexes) ever sees a partial database.
func TestOpenFileRefusesDamage(t *testing.T) {
	db := blobDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "f.xcdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)-9],
		"flipped":   flipped,
		"empty":     nil,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := OpenFile(p); err == nil || got != nil {
			t.Errorf("%s file opened: db=%v err=%v", name, got, err)
		}
	}
}

// sealed appends the checksum trailer Load expects to a hand-built body.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestLoadBoundsCounts: counts and lengths are read from the file; a
// checksum-valid file that lies about them must be refused without a huge
// allocation or an out-of-range slice.
func TestLoadBoundsCounts(t *testing.T) {
	head := append([]byte(nil), magic...)
	head = append(head, 1)      // one table
	head = append(head, 1, 'T') // name
	head = append(head, 1)      // one column
	head = append(head, 1, 'b', byte(Blob))
	huge := binary.AppendUvarint(nil, 1<<62)
	for name, body := range map[string][]byte{
		"row count": append(append([]byte(nil), head...), huge...),
		"blob length": append(append(append(append([]byte(nil), head...),
			1, tagBlob), binary.AppendUvarint(nil, 1<<63+5)...), 'x'),
		"wrong type": append(append([]byte(nil), head...), 1, tagInt, 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		if _, err := Load(bytes.NewReader(sealed(body))); err == nil {
			t.Errorf("%s: lying file loaded", name)
		}
	}
}

// FuzzOpenFile: whatever the file holds, OpenFile returns a database or an
// error, never panics, and refuses a file whose checksum does not match.
// Each input is also tried with its checksum made to match, so the parser
// behind the checksum sees the damage too.
func FuzzOpenFile(f *testing.F) {
	var buf bytes.Buffer
	if err := blobDB(f).Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(sealed(append([]byte(nil), good[:len(good)-9]...)))
	db := sampleDB(f)
	buf.Reset()
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "f.xcdb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid := len(data) >= 4 &&
			crc32.ChecksumIEEE(data[:len(data)-4]) == binary.LittleEndian.Uint32(data[len(data)-4:])
		if got, err := OpenFile(path); !valid && (err == nil || got != nil) {
			t.Fatalf("file with a wrong checksum opened: %v", got)
		}
		if len(data) >= 4 {
			Load(bytes.NewReader(sealed(append([]byte(nil), data[:len(data)-4]...))))
		}
	})
}
