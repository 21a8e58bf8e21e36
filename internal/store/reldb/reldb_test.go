package reldb

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.CreateTable(Schema{Name: "Events", Columns: []Column{
		{Name: "RunID", Type: Int64},
		{Name: "NodeID", Type: Text},
		{Name: "CommonTime", Type: Time},
		{Name: "EventType", Type: Text},
		{Name: "Parameter", Type: Text},
	}}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 5, 19, 10, 0, 0, 0, time.UTC)
	for run := int64(0); run < 3; run++ {
		for i := int64(0); i < 4; i++ {
			err := db.Insert("Events", Row{
				run, fmt.Sprintf("n%d", i%2), base.Add(time.Duration(run*10+i) * time.Second),
				"ev" + fmt.Sprint(i), "",
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := New()
	ok := Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}}
	if err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	cases := []Schema{
		{Name: "", Columns: ok.Columns},
		{Name: "T", Columns: ok.Columns}, // duplicate
		{Name: "U"},                      // no columns
		{Name: "V", Columns: []Column{{Name: "", Type: Int64}}},
		{Name: "W", Columns: []Column{{Name: "a", Type: Int64}, {Name: "a", Type: Text}}},
	}
	for _, s := range cases {
		if err := db.CreateTable(s); err == nil {
			t.Errorf("CreateTable(%+v) succeeded", s)
		}
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{
		{Name: "i", Type: Int64}, {Name: "s", Type: Text},
	}})
	if err := db.Insert("T", Row{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", Row{int64(1), nil}); err != nil {
		t.Fatal("nil must be allowed:", err)
	}
	bad := []Row{
		{int64(1)},            // wrong arity
		{"x", "y"},            // wrong type
		{int64(1), 2},         // int not int64
		{1.5, "x"},            // float in int col
		{int64(1), []byte{1}}, // blob in text col
		{int64(1), "x", "y"},  // too many
	}
	for _, r := range bad {
		if err := db.Insert("T", r); err == nil {
			t.Errorf("Insert(%v) succeeded", r)
		}
	}
	if err := db.Insert("Nope", Row{int64(1)}); err == nil {
		t.Error("insert into missing table succeeded")
	}
}

func TestSelectAllAndCount(t *testing.T) {
	db := sampleDB(t)
	rows, err := db.Select(Query{Table: "Events"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	if n, _ := db.Count("Events"); n != 12 {
		t.Fatalf("count = %d", n)
	}
	if _, err := db.Count("Nope"); err == nil {
		t.Fatal("Count on missing table succeeded")
	}
}

func TestSelectWhere(t *testing.T) {
	db := sampleDB(t)
	rows, err := db.Select(Query{Table: "Events", Where: []Pred{
		Eq("RunID", int64(1)), Eq("NodeID", "n0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r[0] != int64(1) || r[1] != "n0" {
			t.Fatalf("row = %v", r)
		}
	}
}

func TestSelectComparisonOps(t *testing.T) {
	db := sampleDB(t)
	for _, c := range []struct {
		op   Op
		want int
	}{
		{OpEq, 4}, {OpNe, 8}, {OpLt, 4}, {OpLe, 8}, {OpGt, 4}, {OpGe, 8},
	} {
		rows, err := db.Select(Query{Table: "Events",
			Where: []Pred{{Col: "RunID", Op: c.op, Val: int64(1)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.want {
			t.Errorf("op %d: rows = %d, want %d", c.op, len(rows), c.want)
		}
	}
}

func TestSelectOrderLimitOffset(t *testing.T) {
	db := sampleDB(t)
	rows, err := db.Select(Query{Table: "Events", OrderBy: "CommonTime", Desc: true, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].timeAt(2).After(rows[i-1].timeAt(2)) {
			t.Fatal("not descending")
		}
	}
	rows2, err := db.Select(Query{Table: "Events", OrderBy: "CommonTime", Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Fatalf("offset rows = %d", len(rows2))
	}
	if none, err := db.Select(Query{Table: "Events", Offset: 100}); err != nil || none != nil {
		t.Fatalf("out-of-range offset = %v, %v", none, err)
	}
}

func (r Row) timeAt(i int) time.Time { return r[i].(time.Time) }

func TestSelectErrors(t *testing.T) {
	db := sampleDB(t)
	if _, err := db.Select(Query{Table: "Nope"}); err == nil {
		t.Error("missing table")
	}
	if _, err := db.Select(Query{Table: "Events", Where: []Pred{Eq("nope", 1)}}); err == nil {
		t.Error("missing where column")
	}
	if _, err := db.Select(Query{Table: "Events", OrderBy: "nope"}); err == nil {
		t.Error("missing order column")
	}
}

func TestTypeMismatchPredicateSelectsNothing(t *testing.T) {
	db := sampleDB(t)
	rows, err := db.Select(Query{Table: "Events", Where: []Pred{Eq("RunID", "one")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestIndexEquivalence(t *testing.T) {
	db := sampleDB(t)
	plain, err := db.Select(Query{Table: "Events", Where: []Pred{Eq("NodeID", "n1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Events", "NodeID"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Events", "NodeID"); err != nil {
		t.Fatal("re-index must be a no-op:", err)
	}
	indexed, err := db.Select(Query{Table: "Events", Where: []Pred{Eq("NodeID", "n1")}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, indexed) {
		t.Fatalf("index changed results:\n%v\n%v", plain, indexed)
	}
	// Index stays consistent across later inserts.
	db.Insert("Events", Row{int64(9), "n1", time.Now().UTC(), "late", ""})
	after, _ := db.Select(Query{Table: "Events", Where: []Pred{Eq("NodeID", "n1")}})
	if len(after) != len(indexed)+1 {
		t.Fatalf("index missed insert: %d vs %d", len(after), len(indexed))
	}
	if err := db.CreateIndex("Events", "nope"); err == nil {
		t.Error("index on missing column succeeded")
	}
	if err := db.CreateIndex("Nope", "NodeID"); err == nil {
		t.Error("index on missing table succeeded")
	}
}

func TestSelectOne(t *testing.T) {
	db := sampleDB(t)
	row, ok, err := db.SelectOne(Query{Table: "Events", Where: []Pred{Eq("RunID", int64(2))}})
	if err != nil || !ok || row[0] != int64(2) {
		t.Fatalf("SelectOne = %v, %v, %v", row, ok, err)
	}
	_, ok, err = db.SelectOne(Query{Table: "Events", Where: []Pred{Eq("RunID", int64(99))}})
	if err != nil || ok {
		t.Fatalf("SelectOne on empty = %v, %v", ok, err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "All", Columns: []Column{
		{Name: "i", Type: Int64}, {Name: "f", Type: Float64},
		{Name: "s", Type: Text}, {Name: "b", Type: Blob}, {Name: "t", Type: Time},
	}})
	when := time.Date(2014, 5, 19, 1, 2, 3, 456789, time.UTC)
	rows := []Row{
		{int64(-42), 3.25, "hello", []byte{0, 255, 7}, when},
		{nil, nil, nil, nil, nil},
		{int64(1 << 60), -0.0, "", []byte{}, time.Unix(0, 0).UTC()},
	}
	for _, r := range rows {
		if err := db.Insert("All", r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Select(Query{Table: "All"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		for c := range rows[i] {
			want := rows[i][c]
			if b, ok := want.([]byte); ok && len(b) == 0 {
				// Empty and nil blobs are both acceptable as empty.
				if g, ok := got[i][c].([]byte); ok && len(g) == 0 {
					continue
				}
			}
			if wt, ok := want.(time.Time); ok {
				// Sub-microsecond precision: stored as sec+nsec.
				if !got[i][c].(time.Time).Equal(wt) {
					t.Errorf("row %d col %d: %v != %v", i, c, got[i][c], want)
				}
				continue
			}
			if !reflect.DeepEqual(got[i][c], want) {
				t.Errorf("row %d col %d: %#v != %#v", i, c, got[i][c], want)
			}
		}
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted file loaded without error")
	}
	if _, err := Load(bytes.NewReader([]byte("xx"))); err == nil {
		t.Fatal("short file loaded")
	}
}

func TestSaveFileOpenFile(t *testing.T) {
	db := sampleDB(t)
	path := filepath.Join(t.TempDir(), "exp.xcdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := db.Count("Events")
	n2, _ := db2.Count("Events")
	if n1 != n2 {
		t.Fatalf("row counts differ: %d vs %d", n1, n2)
	}
	if !reflect.DeepEqual(db.Tables(), db2.Tables()) {
		t.Fatalf("tables differ")
	}
}

// Property: any set of int64 rows survives a save/load round trip and
// Select(Eq) finds exactly the matching subset.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64, probe int64) bool {
		db := New()
		db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "v", Type: Int64}}})
		want := 0
		for _, v := range vals {
			db.Insert("T", Row{v})
			if v == probe {
				want++
			}
		}
		var buf bytes.Buffer
		if db.Save(&buf) != nil {
			return false
		}
		db2, err := Load(&buf)
		if err != nil {
			return false
		}
		rows, err := db2.Select(Query{Table: "T", Where: []Pred{Eq("v", probe)}})
		return err == nil && len(rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		Int64: "int64", Float64: "float64", Text: "text", Blob: "blob", Time: "time",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %s", ty, ty)
		}
	}
}

// TestSelectAllocatesPerMatch pins what a scan costs: a predicate is
// checked without allocating, so a query allocates for the rows it
// returns, not for the rows it looks at.
func TestSelectAllocatesPerMatch(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{
		{Name: "RunID", Type: Int64}, {Name: "V", Type: Text},
	}})
	for i := 0; i < 5000; i++ {
		db.Insert("T", Row{int64(i % 50), "v"})
	}
	for _, indexed := range []bool{false, true} {
		if indexed {
			db.CreateIndex("T", "RunID")
		}
		none := Query{Table: "T", Where: []Pred{Eq("RunID", int64(999)), {Col: "V", Op: OpNe, Val: "x"}}}
		if n := testing.AllocsPerRun(20, func() { db.Select(none) }); n > 4 {
			t.Errorf("indexed=%v: %v allocs for a query over 5000 rows that matches none", indexed, n)
		}
		some := Query{Table: "T", Where: []Pred{Eq("RunID", int64(7))}}
		// 100 matches: one copy each, plus the growth of the result slice.
		if n := testing.AllocsPerRun(20, func() { db.Select(some) }); n > 100+12 {
			t.Errorf("indexed=%v: %v allocs for a query that matches 100 rows", indexed, n)
		}
	}
}

// TestSelectOrderByIsStable: rows with equal OrderBy keys keep their
// insertion order, ascending and descending alike; nil sorts first.
func TestSelectOrderByIsStable(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "T", Columns: []Column{
		{Name: "k", Type: Int64}, {Name: "seq", Type: Int64},
	}}); err != nil {
		t.Fatal(err)
	}
	keys := []any{int64(2), int64(1), nil, int64(2), int64(1), int64(3), nil, int64(2), int64(1), int64(3)}
	for i, k := range keys {
		if err := db.Insert("T", Row{k, int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	order := func(desc bool) []int64 {
		rows, err := db.Select(Query{Table: "T", OrderBy: "k", Desc: desc})
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int64
		for _, r := range rows {
			seqs = append(seqs, r[1].(int64))
		}
		return seqs
	}
	if got, want := order(false), []int64{2, 6, 1, 4, 8, 0, 3, 7, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("ascending: %v, want %v", got, want)
	}
	if got, want := order(true), []int64{5, 9, 0, 3, 7, 1, 4, 8, 2, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("descending: %v, want %v", got, want)
	}
}
