package sqlexec

import (
	"strings"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
)

// Deterministic edge cases the randomised parity suite cannot pin exactly:
// self-referential INSERT ... SELECT, LIMIT 0/OFFSET-past-end, DISTINCT
// early-stop, and grouped first-row semantics through the compiled path.
func TestCompiledEdgeCases(t *testing.T) {
	db := sampleDB(t)
	// Self INSERT ... SELECT must materialise before inserting.
	r := mustExec(t, db, `INSERT INTO elem_contained SELECT * FROM elem_contained`)
	if r.Affected != 6 {
		t.Fatalf("self insert affected %d", r.Affected)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM elem_contained`).Rows[0][0].Int(); n != 12 {
		t.Fatalf("rows after self insert = %d", n)
	}
	// LIMIT 0 and OFFSET past the end.
	if n := len(mustExec(t, db, `SELECT name FROM landfill LIMIT 0`).Rows); n != 0 {
		t.Fatalf("LIMIT 0 rows = %d", n)
	}
	if n := len(mustExec(t, db, `SELECT name FROM landfill ORDER BY name LIMIT 2 OFFSET 100`).Rows); n != 0 {
		t.Fatalf("big OFFSET rows = %d", n)
	}
	if n := len(mustExec(t, db, `SELECT name FROM landfill ORDER BY name OFFSET 2`).Rows); n != 2 {
		t.Fatalf("OFFSET-only rows = %d", n)
	}
	// DISTINCT with LIMIT early-stops correctly.
	if n := len(mustExec(t, db, `SELECT DISTINCT landfill_name FROM elem_contained LIMIT 2`).Rows); n != 2 {
		t.Fatalf("distinct limit rows = %d", n)
	}
	// Grouped query over a view joined twice + HAVING + ORDER + LIMIT.
	r = mustExec(t, db, `SELECT e.landfill_name, COUNT(*) AS n FROM elem_contained e, landfill l
		WHERE e.landfill_name = l.name AND l.active GROUP BY e.landfill_name ORDER BY n DESC LIMIT 1`)
	if len(r.Rows) != 1 || r.Rows[0][1].Int() != 6 {
		t.Fatalf("grouped top-1 = %v", rowsAsStrings(r))
	}
	// Aggregate + plain col over single group (first-row semantics).
	r = mustExec(t, db, `SELECT landfill_name, COUNT(*) FROM elem_contained WHERE landfill_name = 'a' GROUP BY landfill_name`)
	if r.Rows[0][0].Str() != "a" {
		t.Fatalf("group first-row = %v", rowsAsStrings(r))
	}
}

// Unqualified WHERE references resolve at the earliest join-layout prefix
// that covers them (the interpreter's applyReadyFilters rule), even when
// they are ambiguous in the full layout.
func TestWherePrefixResolution(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE r (k TEXT, n INT)`)
	mustExec(t, db, `INSERT INTO r VALUES ('a', 1), ('b', 2)`)
	for _, c := range []struct {
		q    string
		want int64
	}{
		// k resolves at prefix 0 as x.k = x.k: always true → full cross.
		{`SELECT COUNT(*) FROM r x, r y WHERE k = k`, 4},
		// k resolves at prefix 0 as x.k: filter, then cross with y.
		{`SELECT COUNT(*) FROM r x, r y WHERE k = 'a'`, 2},
		// n resolves at prefix 0 as x.n even though the ON joined y in.
		{`SELECT COUNT(*) FROM r x JOIN r y ON x.k = y.k WHERE n > 0`, 2},
	} {
		for _, opts := range []Options{{}, {DisableHashJoin: true}} {
			got := mustExecOpts(t, db, c.q, opts).Rows[0][0].Int()
			if got != c.want {
				t.Errorf("%q opts=%+v: got %d, want %d", c.q, opts, got, c.want)
			}
			ref, err := evalSelectInterp(db, mustParseSelect(t, c.q))
			if err != nil {
				t.Fatalf("%q: interp: %v", c.q, err)
			}
			if ref.Rows[0][0].Int() != c.want {
				t.Errorf("%q: interpreter disagrees: %d", c.q, ref.Rows[0][0].Int())
			}
		}
	}
}

func mustParseSelect(t *testing.T, q string) *sqlparser.Select {
	t.Helper()
	st, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.Select)
}

// Under SELECT DISTINCT an ORDER BY key must be a function of the output
// row. A key over other columns takes its value from whichever duplicate
// arrives first, which depends on the join order, so both the compiled
// path and the interpreter reject it — on an empty table too — and accept
// keys that name output columns or repeat a select item, a column
// reference however qualified included. An output column name wins over
// a select item that reads the same name.
func TestDistinctOrderByKeys(t *testing.T) {
	db := sampleDB(t)
	mustExec(t, db, `CREATE TABLE empty (a INT, b TEXT)`)
	for _, q := range []string{
		`SELECT DISTINCT e.elem_name FROM elem_contained e JOIN landfill l ON e.landfill_name = l.name ORDER BY l.city`,
		`SELECT DISTINCT elem_name FROM elem_contained ORDER BY amount`,
		`SELECT DISTINCT a + 1 FROM empty ORDER BY a`,
		`SELECT DISTINCT landfill_name FROM elem_contained GROUP BY landfill_name ORDER BY COUNT(*)`,
	} {
		if _, err := Exec(db, q, Options{}); err == nil || !strings.Contains(err.Error(), "must appear in the select list") {
			t.Errorf("%q: compiled err = %v, want the select-list error", q, err)
		}
		if _, err := evalSelectInterp(db, mustParseSelect(t, q)); err == nil {
			t.Errorf("%q: interpreter accepted it", q)
		}
	}
	for _, q := range []string{
		`SELECT DISTINCT e.elem_name FROM elem_contained e JOIN landfill l ON e.landfill_name = l.name ORDER BY e.elem_name DESC`,
		`SELECT DISTINCT elem_name, amount FROM elem_contained ORDER BY amount, elem_name`,
		`SELECT DISTINCT UPPER(elem_name) AS u FROM elem_contained ORDER BY u`,
		`SELECT DISTINCT a + 1 FROM empty ORDER BY a + 1`,
		`SELECT DISTINCT landfill_name, COUNT(*) FROM elem_contained GROUP BY landfill_name ORDER BY COUNT(*), landfill_name`,
		`SELECT DISTINCT elem_name FROM elem_contained e ORDER BY e.elem_name`,
		`SELECT DISTINCT elem_name FROM elem_contained ORDER BY elem_contained.elem_name DESC`,
		`SELECT DISTINCT elem_name, l.city FROM elem_contained e JOIN landfill l ON e.landfill_name = l.name ORDER BY city, e.elem_name`,
		`SELECT DISTINCT l.city AS town FROM elem_contained e JOIN landfill l ON e.landfill_name = l.name ORDER BY l.city DESC`,
		`SELECT DISTINCT * FROM landfill l ORDER BY l.city, l.name`,
	} {
		ref, err := evalSelectInterp(db, mustParseSelect(t, q))
		if err != nil {
			t.Fatalf("%q: interp: %v", q, err)
		}
		for _, opts := range []Options{{}, {DisableHashJoin: true}, {DisableTopK: true}} {
			got := mustExecOpts(t, db, q, opts)
			if g, w := strings.Join(renderRows(got), "\n"), strings.Join(renderRows(ref), "\n"); g != w {
				t.Errorf("%q opts=%+v:\n got %s\nwant %s", q, opts, g, w)
			}
		}
	}
	q := `SELECT DISTINCT landfill_name AS elem_name, elem_name AS e FROM elem_contained ORDER BY elem_name, e`
	want := "a|Lead,a|Mercury,a|Zinc,b|Mercury,c|Gold,c|Lead"
	if got := strings.Join(rowsAsStrings(mustExec(t, db, q)), ","); got != want {
		t.Errorf("%q: got %s, want %s", q, got, want)
	}
	ref, err := evalSelectInterp(db, mustParseSelect(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowsAsStrings(ref), ","); got != want {
		t.Errorf("%q interp: got %s, want %s", q, got, want)
	}
}

// ORDER BY keys fall back from the projected alias to the underlying
// column per row when evaluation (not just resolution) fails — e.g. an
// alias that shadows a sortable column with text.
func TestOrderByAliasEvalFallback(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (3, 'x'), (1, 'y'), (2, 'z')`)
	// Projected alias 'a' is TEXT, so a+1 errors against the output row
	// and must fall back to the underlying INT column a, per row.
	r := mustExec(t, db, `SELECT b AS a FROM t ORDER BY a + 1`)
	got := strings.Join(rowsAsStrings(r), ",")
	if got != "y,z,x" {
		t.Fatalf("fallback order = %q, want y,z,x", got)
	}
}

// Numeric join keys must follow Compare equality across renderings:
// INTEGER 1000000 widens to DOUBLE 1e+06, and the hash join must match
// them exactly like the nested-loop path does.
func TestHashJoinNumericFolding(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE ai (x INT)`)
	mustExec(t, db, `CREATE TABLE bf (y DOUBLE)`)
	mustExec(t, db, `INSERT INTO ai VALUES (1000000), (2), (-3)`)
	mustExec(t, db, `INSERT INTO bf VALUES (1000000.0), (2.5), (-3.0), (0.0)`)
	const q = `SELECT COUNT(*) FROM ai JOIN bf ON ai.x = bf.y`
	hash := mustExecOpts(t, db, q, Options{}).Rows[0][0].Int()
	nested := mustExecOpts(t, db, q, Options{DisableHashJoin: true}).Rows[0][0].Int()
	if hash != 2 || nested != 2 {
		t.Fatalf("hash=%d nested=%d, want 2 (1e6 and -3 match)", hash, nested)
	}
}

// Negative zero: Compare-equal to +0.0, so index seeks and hash joins
// must treat them as the same key.
func TestNegativeZeroSeekAndJoin(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE nz (c DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_nz ON nz (c)`)
	mustExec(t, db, `INSERT INTO nz VALUES (-0.0), (0.0), (1.5)`)
	const q = `SELECT COUNT(*) FROM nz WHERE c = 0.0`
	seek := mustExecOpts(t, db, q, Options{}).Rows[0][0].Int()
	scan := mustExecOpts(t, db, q, Options{DisableIndexSeek: true}).Rows[0][0].Int()
	if seek != 2 || scan != 2 {
		t.Fatalf("seek=%d scan=%d, want 2 (-0.0 = 0.0)", seek, scan)
	}
	const jq = `SELECT COUNT(*) FROM nz a JOIN nz b ON a.c = b.c`
	hash := mustExecOpts(t, db, jq, Options{}).Rows[0][0].Int()
	nested := mustExecOpts(t, db, jq, Options{DisableHashJoin: true}).Rows[0][0].Int()
	if hash != nested || hash != 5 {
		t.Fatalf("hash=%d nested=%d, want 5 (2x2 zeros + 1)", hash, nested)
	}
}

// A left-only conjunct in a LEFT JOIN's ON clause disables matching for
// the rows that fail it — they must surface padded, never dropped.
func TestLeftJoinLeftOnlyOnConjunct(t *testing.T) {
	db := sampleDB(t)
	q := `SELECT l.name, e.elem_name FROM landfill l
		LEFT JOIN elem_contained e ON l.name = e.landfill_name AND l.active
		ORDER BY l.name`
	for _, opts := range []Options{{}, {DisableHashJoin: true}} {
		r := mustExecOpts(t, db, q, opts)
		// c is inactive: its 2 elements must NOT match; c appears once, padded.
		sawC := 0
		for _, row := range r.Rows {
			if row[0].Str() == "c" {
				sawC++
				if !row[1].IsNull() {
					t.Fatalf("opts=%+v: inactive landfill matched %v", opts, row[1])
				}
			}
		}
		if sawC != 1 {
			t.Fatalf("opts=%+v: padded row count for c = %d, want 1", opts, sawC)
		}
	}
}
