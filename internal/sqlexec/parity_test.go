package sqlexec

// parity_test.go — pins the compiled streaming pipeline (compile.go /
// run.go) to the reference interpreter's semantics (oracle_test.go). Randomised
// SELECTs — joins (inner/left/comma), NULLs, LIKE, DISTINCT, ORDER
// BY/LIMIT/OFFSET, grouping and aggregates — are evaluated both ways,
// under every planner-option combination (hash joins and index pushdown on
// and off), and the results must agree.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// parityDB builds two tables with NULLs sprinkled through every nullable
// column; t1.id is an indexed PRIMARY KEY and t2.k carries a secondary
// index, so equality pushdown has something to seek.
func parityDB(t *testing.T, rng *rand.Rand, n1, n2 int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE, d BOOL)`)
	mustExec(t, db, `CREATE TABLE t2 (id INT, k TEXT, v DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_k ON t2 (k)`)
	t1, _ := db.Table("t1")
	t2, _ := db.Table("t2")
	for i := 0; i < n1; i++ {
		row := []sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewInt(int64(rng.Intn(10) - 5)),
			sqlval.NewString(fmt.Sprintf("s%d", rng.Intn(6))),
			sqlval.NewFloat(float64(rng.Intn(80)) / 4),
			sqlval.NewBool(rng.Intn(2) == 0),
		}
		if rng.Intn(8) == 0 {
			row[1] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[2] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[3] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[4] = sqlval.Null
		}
		if err := t1.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n2; i++ {
		// t2.id is unique (though not declared so): ORDER BY chains ending
		// in x.id, y.id are then total orders over join results, making
		// ordered comparisons against the interpreter exact.
		row := []sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("s%d", rng.Intn(6))),
			sqlval.NewFloat(float64(rng.Intn(40)) / 2),
		}
		if rng.Intn(8) == 0 {
			row[1] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[2] = sqlval.Null
		}
		if err := t2.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// genSelect produces a random SELECT over t1 (alias x) and optionally t2
// (alias y). Predicates are type-safe (errors would otherwise diverge
// between the lazy interpreter and the early-stopping pipeline), and
// ORDER BY always ends with the unique x.id when a LIMIT rides along, so
// the expected prefix is deterministic. A DISTINCT query also projects
// its ORDER BY columns, which SELECT DISTINCT requires.
func genSelect(rng *rand.Rand) string {
	distinct := rng.Intn(4) == 0
	twoTables := rng.Intn(3) > 0
	joinStyle := rng.Intn(4) // 0 inner equi, 1 left equi, 2 comma+where, 3 non-equi inner
	grouped := rng.Intn(4) == 0

	items := []string{"x.id", "x.a", "x.b", "UPPER(x.b)", "x.a + 1",
		"COALESCE(x.b, 'zz')", "CASE WHEN x.a > 0 THEN 'pos' ELSE 'neg' END"}
	if twoTables {
		items = append(items, "y.k", "y.v", "y.id")
	}
	var proj []string
	star := false
	if grouped {
		aggs := []string{"COUNT(*)", "SUM(x.a)", "AVG(x.c)", "MIN(x.b)", "MAX(x.c)", "COUNT(DISTINCT x.b)"}
		proj = append(proj, "x.b AS g")
		for i := rng.Intn(3) + 1; i > 0; i-- {
			proj = append(proj, aggs[rng.Intn(len(aggs))])
		}
	} else {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			proj = append(proj, items[rng.Intn(len(items))])
		}
		star = rng.Intn(6) == 0
	}
	// query assembles the select list in front of the clauses in b.
	var b strings.Builder
	query := func() string {
		head := "SELECT "
		if distinct {
			head += "DISTINCT "
		}
		if star {
			proj = append(proj, "*")
		}
		return head + strings.Join(proj, ", ") + b.String()
	}

	b.WriteString(" FROM t1 x")
	var conj []string
	if twoTables {
		switch joinStyle {
		case 0:
			b.WriteString(" JOIN t2 y ON x.b = y.k")
			if rng.Intn(3) == 0 {
				b.WriteString(" AND y.v > 4")
			}
		case 1:
			b.WriteString(" LEFT JOIN t2 y ON x.id = y.id")
			switch rng.Intn(4) {
			case 0: // right-only ON conjunct: pushable into the right scan
				b.WriteString(" AND y.v > 4")
			case 1: // left-only ON conjunct: must stay residual (pads!)
				b.WriteString(" AND x.a > 0")
			}
		case 2:
			b.WriteString(", t2 y")
			conj = append(conj, "x.b = y.k")
		default:
			b.WriteString(" JOIN t2 y ON x.id >= y.id")
		}
	}

	preds := []string{
		"x.a > 0", "x.b LIKE 's%'", "x.b LIKE '%1'", "x.b LIKE 's_'", "x.b LIKE '%s%'",
		"x.b IS NOT NULL", "x.c BETWEEN 2 AND 15", "x.b IN ('s1', 's3')",
		"NOT (x.a = 2)", "x.d", "x.c IS NULL OR x.c > 3",
		fmt.Sprintf("x.id = %d", rng.Intn(40)),
		// Unqualified references: `id` is ambiguous in a joined layout but
		// resolves at prefix 0 as x.id (earliest-prefix rule); a, c, d
		// exist only in t1.
		"a > 0", fmt.Sprintf("id = %d", rng.Intn(40)), "c BETWEEN 2 AND 15", "d",
	}
	if twoTables && joinStyle != 1 {
		// WHERE predicates over the LEFT JOIN's right side stay out so
		// padded rows remain observable.
		preds = append(preds, "y.k = 's2'", "y.v >= 3")
	}
	for i := rng.Intn(3); i > 0; i-- {
		conj = append(conj, preds[rng.Intn(len(preds))])
	}
	if len(conj) > 0 {
		b.WriteString(" WHERE " + strings.Join(conj, " AND "))
	}

	limit := rng.Intn(3) == 0
	if grouped {
		b.WriteString(" GROUP BY x.b")
		if rng.Intn(2) == 0 {
			b.WriteString(" HAVING COUNT(*) >= 2")
		}
		if rng.Intn(2) == 0 {
			b.WriteString(" ORDER BY g")
			if limit {
				b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(5)+1))
			}
		}
		return query()
	}

	var order []string
	switch rng.Intn(3) {
	case 0:
		order = []string{"x.a DESC", "x.id"}
	case 1:
		order = []string{"x.b", "x.id DESC"}
	default:
		if limit {
			order = []string{"x.id"}
		}
	}
	if order != nil && twoTables {
		order = append(order, "y.id")
	}
	if order != nil {
		b.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if distinct {
		for _, key := range order {
			if col := strings.TrimSuffix(key, " DESC"); !slices.Contains(proj, col) {
				proj = append(proj, col)
			}
		}
	}
	if limit {
		b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(8)+1))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(4)))
		}
	}
	return query()
}

func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%d:%s", v.Type(), v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

var parityOptions = []Options{
	{},
	{DisableHashJoin: true},
	{DisableIndexSeek: true},
	{DisableHashJoin: true, DisableIndexSeek: true},
	{DisableTopK: true},
	{Parallelism: 1},
	{Parallelism: 2},
	{Parallelism: 4},
	{Parallelism: 4, DisableHashJoin: true},
	{Parallelism: 2, DisableTopK: true},
}

// forceParallel drops the parallel-path thresholds so the small parity
// fixtures split into many morsels and actually exercise the scheduler,
// restoring the production values on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	minRows, morsel := parallelMinRows, parallelMorsel
	parallelMinRows, parallelMorsel = 1, 7
	t.Cleanup(func() { parallelMinRows, parallelMorsel = minRows, morsel })
}

// TestCompiledMatchesInterpreter is the parity property: for every
// generated query, the compiled pipeline agrees with the interpreter under
// every option combination.
func TestCompiledMatchesInterpreter(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		db := parityDB(t, rng, 30+rng.Intn(30), 20+rng.Intn(25))
		for q := 0; q < 40; q++ {
			checkCompiledMatchesInterpreter(t, db, genSelect(rng), parityOptions)
		}
	}
}

// FuzzCompiledMatchesInterpreter is the differential fuzz target of the
// same property: each seed builds a parity database and one generated
// SELECT, and the compiled pipeline at Parallelism 1 and 4 (thresholds
// forced down so the parallel path runs) must agree with the interpreter.
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	for _, seed := range []int64{0, 1, 41, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		forceParallel(t)
		rng := rand.New(rand.NewSource(seed))
		db := parityDB(t, rng, 30+rng.Intn(30), 20+rng.Intn(25))
		checkCompiledMatchesInterpreter(t, db, genSelect(rng), []Options{{Parallelism: 1}, {Parallelism: 4}})
	})
}

// checkCompiledMatchesInterpreter evaluates text through the interpreter
// and through the compiled pipeline under each of optionSets: both must
// answer alike — the exact row sequence when the query orders by a unique
// key chain, multiset equality otherwise (SQL leaves that order
// unspecified, and the executor's build-side choice may legitimately
// differ from the interpreter's nesting). genSelect builds only valid
// queries, so an error either way fails: one that failed both ways would
// compare no rows.
func checkCompiledMatchesInterpreter(t *testing.T, db *sqldb.Database, text string, optionSets []Options) {
	t.Helper()
	st, err := sqlparser.Parse(text)
	if err != nil {
		t.Fatalf("generated unparseable SQL %q: %v", text, err)
	}
	sel := st.(*sqlparser.Select)

	want, err := evalSelectInterp(db, sel)
	if err != nil {
		t.Fatalf("%q: interp: %v", text, err)
	}
	ordered := len(sel.OrderBy) > 0

	for _, opts := range optionSets {
		got, err := runSelect(db, sel, opts)
		if err != nil {
			t.Fatalf("%q opts=%+v: compiled: %v", text, opts, err)
		}
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%q opts=%+v: headers %v != %v", text, opts, got.Columns, want.Columns)
		}
		wr, gr := renderRows(want), renderRows(got)
		if sel.Limit == nil && sel.Offset == nil {
			if strings.Join(sortedCopy(wr), "\n") != strings.Join(sortedCopy(gr), "\n") {
				t.Fatalf("%q opts=%+v:\ninterp:\n%s\ncompiled:\n%s",
					text, opts, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
			}
			if ordered && strings.Join(wr, "\n") != strings.Join(gr, "\n") {
				t.Fatalf("%q opts=%+v: ordered sequences differ\ninterp:\n%s\ncompiled:\n%s",
					text, opts, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
			}
			continue
		}
		// LIMIT/OFFSET present.
		if ordered {
			// The generator guarantees a deterministic total order
			// (unique-key tiebreak) whenever LIMIT rides on ORDER BY, so
			// the prefix must match exactly.
			if strings.Join(wr, "\n") != strings.Join(gr, "\n") {
				t.Fatalf("%q opts=%+v: limited sequences differ\ninterp:\n%s\ncompiled:\n%s",
					text, opts, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
			}
			continue
		}
		// LIMIT without ORDER BY: any |limit| rows of the full result are
		// acceptable — check count and containment against the unlimited
		// query.
		noLim := *sel
		noLim.Limit, noLim.Offset = nil, nil
		full, err := evalSelectInterp(db, &noLim)
		if err != nil {
			t.Fatalf("%q: unlimited reference failed: %v", text, err)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%q opts=%+v: LIMIT row count %d != %d", text, opts, len(gr), len(wr))
		}
		pool := map[string]int{}
		for _, r := range renderRows(full) {
			pool[r]++
		}
		for _, r := range gr {
			if pool[r] == 0 {
				t.Fatalf("%q opts=%+v: limited row %q not in full result", text, opts, r)
			}
			pool[r]--
		}
	}
}

// TestCompiledOrderStability pins tie handling: ORDER BY on a non-unique
// key must keep equal-key rows in arrival order (stable sort), and the
// bounded top-K heap must retain exactly the stable prefix.
func TestCompiledOrderStability(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE s (grp TEXT, n INT)`)
	tab, _ := db.Table("s")
	for i := 0; i < 40; i++ {
		if err := tab.Insert([]sqlval.Value{
			sqlval.NewString(fmt.Sprintf("g%d", i%4)),
			sqlval.NewInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	full := mustExec(t, db, `SELECT grp, n FROM s ORDER BY grp`)
	for _, lim := range []int{1, 5, 13, 40} {
		q := fmt.Sprintf(`SELECT grp, n FROM s ORDER BY grp LIMIT %d`, lim)
		for _, opts := range []Options{{}, {DisableTopK: true}} {
			got := mustExecOpts(t, db, q, opts)
			if len(got.Rows) != lim {
				t.Fatalf("LIMIT %d returned %d rows", lim, len(got.Rows))
			}
			for i := range got.Rows {
				if got.Rows[i][1].Int() != full.Rows[i][1].Int() {
					t.Fatalf("LIMIT %d opts=%+v: row %d = n%d, want n%d (stable prefix)",
						lim, opts, i, got.Rows[i][1].Int(), full.Rows[i][1].Int())
				}
			}
		}
	}
}

// TestIndexSeekMatchesScan drives the pushdown on and off across value
// types, including coerced constants (int literal on a float-typed
// column) and values absent from the index.
func TestIndexSeekMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := parityDB(t, rng, 60, 40)
	queries := []string{
		`SELECT x.id, x.b FROM t1 x WHERE x.id = 7`,
		`SELECT x.id FROM t1 x WHERE x.id = 7.0`,
		`SELECT x.id FROM t1 x WHERE x.id = 999`,
		`SELECT y.k, y.v FROM t2 y WHERE y.k = 's3'`,
		`SELECT y.k FROM t2 y WHERE y.k = 'absent'`,
		`SELECT x.id, y.k FROM t1 x JOIN t2 y ON x.b = y.k WHERE y.k = 's1' AND x.id = 3`,
		`SELECT COUNT(*) FROM t1 x, t2 y WHERE x.b = y.k AND y.k = 's2'`,
	}
	for _, q := range queries {
		with := renderRows(mustExecOpts(t, db, q, Options{}))
		without := renderRows(mustExecOpts(t, db, q, Options{DisableIndexSeek: true}))
		if strings.Join(sortedCopy(with), "\n") != strings.Join(sortedCopy(without), "\n") {
			t.Fatalf("%q: seek=%v scan=%v", q, with, without)
		}
	}
	// Non-integral and incomparable constants must not be pushed into the
	// int-keyed index (they filter, or error, exactly like the scan path).
	if got := mustExec(t, db, `SELECT COUNT(*) FROM t1 x WHERE x.id = 7.5`); got.Rows[0][0].Int() != 0 {
		t.Fatalf("fractional probe matched %v rows", got.Rows[0][0])
	}
	if _, err := Exec(db, `SELECT x.id FROM t1 x WHERE x.b = 3`, Options{}); err == nil {
		t.Fatal("text = int comparison should error, not seek")
	}
}
