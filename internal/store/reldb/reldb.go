// Package reldb is a small embedded relational database used for
// ExCovery's third storage level (§IV-F, Table I). The paper's prototype
// stores each experiment in a file-based SQLite database to "unify and
// accelerate data access and extraction methods"; reldb provides the same
// properties with the standard library only: typed tables, equality
// selection with ascending order, hash indexes for equality lookups,
// and a checksummed single-file binary format so complete experiments can
// be exchanged as one file.
package reldb

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Type is a column type.
type Type int

const (
	// Int64 stores signed integers.
	Int64 Type = iota
	// Float64 stores floating point numbers.
	Float64
	// Text stores strings.
	Text
	// Blob stores byte slices.
	Blob
	// Time stores timestamps with nanosecond precision.
	Time
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Text:
		return "text"
	case Blob:
		return "blob"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema describes one table.
type Schema struct {
	Name    string
	Columns []Column
}

// Row is one table row; values align with the schema's columns. Allowed
// value types: int64, float64, string, []byte, time.Time, and nil.
type Row []any

// table holds schema, rows and indexes.
type table struct {
	schema  Schema
	colIdx  map[string]int
	rows    []Row
	indexes map[string]map[any][]int // column → value → row ordinals
}

// DB is an in-memory relational database with file persistence.
type DB struct {
	tables map[string]*table
	order  []string // table creation order, for deterministic dumps
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable adds a table. Duplicate table or column names error.
func (db *DB) CreateTable(s Schema) error {
	if s.Name == "" {
		return fmt.Errorf("reldb: empty table name")
	}
	if _, dup := db.tables[s.Name]; dup {
		return fmt.Errorf("reldb: table %q exists", s.Name)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("reldb: table %q has no columns", s.Name)
	}
	t := &table{schema: s, colIdx: make(map[string]int), indexes: make(map[string]map[any][]int)}
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("reldb: table %q column %d unnamed", s.Name, i)
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("reldb: table %q duplicate column %q", s.Name, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	db.tables[s.Name] = t
	db.order = append(db.order, s.Name)
	return nil
}

// Tables returns the table names in creation order.
func (db *DB) Tables() []string { return append([]string(nil), db.order...) }

// Schema returns a table's schema.
func (db *DB) Schema(name string) (Schema, error) {
	t, ok := db.tables[name]
	if !ok {
		return Schema{}, fmt.Errorf("reldb: no table %q", name)
	}
	return t.schema, nil
}

// checkValue verifies a value against a column type.
func checkValue(c Column, v any) error {
	if v == nil {
		return nil
	}
	ok := false
	switch c.Type {
	case Int64:
		_, ok = v.(int64)
	case Float64:
		_, ok = v.(float64)
	case Text:
		_, ok = v.(string)
	case Blob:
		_, ok = v.([]byte)
	case Time:
		_, ok = v.(time.Time)
	}
	if !ok {
		return fmt.Errorf("reldb: column %q wants %s, got %T", c.Name, c.Type, v)
	}
	return nil
}

// Insert appends a row. The row length and value types must match the
// schema. Insert takes ownership of row: the caller must not read or
// modify it afterwards (conditioning inserts every event and packet of an
// experiment, so the defensive copy this replaces was one allocation per
// stored measurement).
func (db *DB) Insert(tableName string, row Row) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no table %q", tableName)
	}
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("reldb: table %q wants %d values, got %d",
			tableName, len(t.schema.Columns), len(row))
	}
	for i, c := range t.schema.Columns {
		if err := checkValue(c, row[i]); err != nil {
			return err
		}
	}
	ord := len(t.rows)
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		key := indexKey(row[t.colIdx[col]])
		idx[key] = append(idx[key], ord)
	}
	return nil
}

// indexKey normalizes a value for use as an index map key. []byte is not
// comparable, so blobs are keyed by string conversion.
func indexKey(v any) any {
	if b, ok := v.([]byte); ok {
		return string(b)
	}
	return v
}

// CreateIndex builds a hash index over one column; Eq predicates on that
// column then use it.
func (db *DB) CreateIndex(tableName, column string) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("reldb: no table %q", tableName)
	}
	ci, ok := t.colIdx[column]
	if !ok {
		return fmt.Errorf("reldb: table %q has no column %q", tableName, column)
	}
	if _, dup := t.indexes[column]; dup {
		return nil
	}
	idx := make(map[any][]int)
	for ord, row := range t.rows {
		key := indexKey(row[ci])
		idx[key] = append(idx[key], ord)
	}
	t.indexes[column] = idx
	return nil
}

// Indexes returns the indexed columns of a table, sorted.
func (db *DB) Indexes(tableName string) ([]string, error) {
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("reldb: no table %q", tableName)
	}
	cols := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols, nil
}

// Count returns the number of rows in a table.
func (db *DB) Count(tableName string) (int, error) {
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("reldb: no table %q", tableName)
	}
	return len(t.rows), nil
}

// Pred is one column equality; a query's predicates are conjunctive.
type Pred struct {
	Col string
	Val any
}

// Eq builds an equality predicate.
func Eq(col string, val any) Pred { return Pred{Col: col, Val: val} }

// Query selects rows from a table.
type Query struct {
	// Table is the source table.
	Table string
	// Where predicates are ANDed; empty selects all rows.
	Where []Pred
	// OrderBy sorts ascending by this column ("" keeps insertion
	// order).
	OrderBy string
}

// compare orders two values of the same column type; nil sorts first.
func compare(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		y := b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case []byte:
		y := b.([]byte)
		return compareBytes(x, y)
	case time.Time:
		y := b.(time.Time)
		switch {
		case x.Before(y):
			return -1
		case x.After(y):
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("reldb: uncomparable type %T", a))
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// sameType reports whether two non-nil values hold the same one of the five
// value types a Row admits.
func sameType(a, b any) bool {
	switch a.(type) {
	case int64:
		_, ok := b.(int64)
		return ok
	case float64:
		_, ok := b.(float64)
		return ok
	case string:
		_, ok := b.(string)
		return ok
	case []byte:
		_, ok := b.([]byte)
		return ok
	case time.Time:
		_, ok := b.(time.Time)
		return ok
	}
	return false
}

func (p Pred) match(v any) bool {
	if v == nil || p.Val == nil {
		return v == nil && p.Val == nil
	}
	// Type mismatches never match rather than panicking: a query with a
	// wrong-typed operand selects nothing.
	return sameType(v, p.Val) && compare(v, p.Val) == 0
}

// Select runs a query and returns matching rows (copies).
func (db *DB) Select(q Query) ([]Row, error) {
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("reldb: no table %q", q.Table)
	}
	for _, p := range q.Where {
		if _, ok := t.colIdx[p.Col]; !ok {
			return nil, fmt.Errorf("reldb: table %q has no column %q", q.Table, p.Col)
		}
	}
	if q.OrderBy != "" {
		if _, ok := t.colIdx[q.OrderBy]; !ok {
			return nil, fmt.Errorf("reldb: table %q has no column %q", q.Table, q.OrderBy)
		}
	}

	// Resolve predicate columns once, not per row.
	cols := make([]int, len(q.Where))
	for i, p := range q.Where {
		cols[i] = t.colIdx[p.Col]
	}

	// Candidate rows: the ordinals of a hash index if a predicate's column
	// has one (read in place, never copied), else every row.
	var cands []int
	indexed := false
	for _, p := range q.Where {
		if idx, has := t.indexes[p.Col]; has {
			cands, indexed = idx[indexKey(p.Val)], true
			break
		}
	}
	n := len(t.rows)
	if indexed {
		n = len(cands)
	}

	var out []Row
candidates:
	for i := 0; i < n; i++ {
		row := t.rows[i]
		if indexed {
			row = t.rows[cands[i]]
		}
		for j, p := range q.Where {
			if !p.match(row[cols[j]]) {
				continue candidates
			}
		}
		out = append(out, append(Row(nil), row...))
	}

	if q.OrderBy != "" {
		// Stable: rows with equal keys keep insertion order.
		ci := t.colIdx[q.OrderBy]
		slices.SortStableFunc(out, func(a, b Row) int { return compare(a[ci], b[ci]) })
	}
	return out, nil
}

// SelectOne returns the first matching row; ok is false when none match.
func (db *DB) SelectOne(q Query) (Row, bool, error) {
	rows, err := db.Select(q)
	if err != nil || len(rows) == 0 {
		return nil, false, err
	}
	return rows[0], true, nil
}
