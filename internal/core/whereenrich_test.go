package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// whereFixture extends the running scenario so WHERE enrichments see
// repeated hidden tuples: every element occurs several times, two rows
// have a NULL element, Mercury's assemblage is multi-valued, and a
// reading table holds floats that differ only in sign. Alice also gets a
// stored query whose answer mixes strings with a number, one answering
// the number 2, and a danger table mirroring her dangerLevel facts for
// the plain-SQL side of schema-enrichment comparisons.
func whereFixture(t *testing.T) *Enricher {
	t.Helper()
	e := fixture(t)
	if _, err := e.DB.ExecScript(`
		INSERT INTO elem_contained VALUES
			('Mercury', 'c'), ('Lead', 'b'), ('Zinc', 'b'), ('Gold', 'a'),
			('Asbestos', 'c'), (NULL, 'a'), (NULL, 'b'), ('Mercury', 'a'),
			('Lead', 'a'), ('Asbestos', 'b');
		CREATE TABLE reading (sensor TEXT, val FLOAT);
		CREATE TABLE danger (elem TEXT, level TEXT);
		INSERT INTO danger VALUES ('Mercury', 'high'), ('Lead', 'high'), ('Zinc', 'low');
	`); err != nil {
		t.Fatal(err)
	}
	tab, err := e.DB.Catalog().Table("reading")
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	for i, v := range []float64{0, negZero, 1.5, negZero, 0, negZero} {
		row, err := engine.Row(fmt.Sprintf("s%d", i), v)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []rdf.Triple{
		{S: smg("Mercury"), P: smg("oreAssemblage"), O: smg("Gold")},
		{S: smg("Mixed"), P: smg("member"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)},
		{S: smg("Mixed"), P: smg("member"), O: smg("Mercury")},
		{S: smg("Mixed"), P: smg("member"), O: rdf.NewTypedLiteral("8", rdf.XSDInteger)},
		{S: smg("Mixed"), P: smg("member"), O: smg("Lead")},
		{S: smg("Two"), P: smg("value"), O: rdf.NewTypedLiteral("2", rdf.XSDInteger)},
	} {
		if _, err := e.Platform.Insert("alice", tr); err != nil {
			t.Fatal(err)
		}
	}
	for name, subject := range map[string]string{"mixedQuery": "Mixed", "twoQuery": "Two"} {
		prop := "member"
		if subject == "Two" {
			prop = "value"
		}
		if err := e.Platform.RegisterQuery("alice", name,
			`SELECT ?x WHERE { <`+DefaultIRIPrefix+subject+`> <`+DefaultIRIPrefix+prop+`> ?x }`); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// enrichedVsPlain is one SESQL query and the plain SQL it must answer
// like: the enrichment's candidate list expanded by hand into IN-lists.
type enrichedVsPlain struct {
	name  string
	sesql string
	sql   string
	// ordered compares row sequences; otherwise sorted multisets.
	ordered bool
	// cols, when set, pins the SESQL result's headers (comma-joined).
	cols string
}

// checkAgainstPlainSQL runs every case at Parallelism 1 and 4 and
// compares the enriched answer with the plain SQL one.
func checkAgainstPlainSQL(t *testing.T, e *Enricher, cases []enrichedVsPlain) {
	t.Helper()
	for _, par := range []int{1, 4} {
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for _, tc := range cases {
			got, err := e.Query("alice", tc.sesql)
			if err != nil {
				t.Errorf("%s (parallelism %d): %v", tc.name, par, err)
				continue
			}
			want, err := e.DB.Query(tc.sql)
			if err != nil {
				t.Fatalf("%s: plain SQL: %v", tc.name, err)
			}
			g, w := rowStrings(got, tc.ordered), rowStrings(want, tc.ordered)
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s (parallelism %d):\nenriched %v\nplain    %v", tc.name, par, g, w)
			}
			if tc.cols != "" && strings.Join(got.Columns, ",") != tc.cols {
				t.Errorf("%s (parallelism %d): columns %v, want %s", tc.name, par, got.Columns, tc.cols)
			}
		}
	}
}

// rowStrings renders rows cell by cell with Value.String, which tells
// -0.0 from 0.0; unordered results are sorted.
func rowStrings(r *sqlexec.Result, ordered bool) []string {
	out := []string{}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestWhereEnrichmentExact pins what a WHERE enrichment keeps when hidden
// tuples repeat: the answer must equal the plain SQL with the ontology's
// candidates written out, whatever the enricher reuses between rows.
func TestWhereEnrichmentExact(t *testing.T) {
	e := whereFixture(t)
	// oreAssemblage: Mercury → {Lead, Gold}, Lead → {Zinc}.
	const assemblage = `(e2.elem_name = 'Mercury' AND (e1.elem_name <> 'Lead' OR e1.elem_name <> 'Gold'))
		OR (e2.elem_name = 'Lead' AND e1.elem_name <> 'Zinc')`
	const hazardous = `('Mercury', 'Lead', 'Asbestos')`
	checkAgainstPlainSQL(t, e, []enrichedVsPlain{
		{
			name: "Example 4.6 two-column REPLACEVARIABLE",
			sesql: `SELECT e1.landfill_name AS l_name1, e2.landfill_name AS l_name2, e1.elem_name
FROM elem_contained AS e1, elem_contained AS e2
WHERE ${e1.elem_name <> e2.elem_name:cond1} AND e1.elem_name = e2.elem_name
ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)`,
			sql: `SELECT e1.landfill_name, e2.landfill_name, e1.elem_name
FROM elem_contained AS e1, elem_contained AS e2
WHERE e1.elem_name = e2.elem_name AND (` + assemblage + `)`,
			cols: "l_name1,l_name2,elem_name",
		},
		{
			// Without the equi-join the two hidden columns vary
			// independently: the outcome depends on the pair, not on the
			// attribute alone.
			name: "two-column REPLACEVARIABLE over the cross product",
			sesql: `SELECT e1.landfill_name, e2.landfill_name, e1.elem_name, e2.elem_name
FROM elem_contained AS e1, elem_contained AS e2
WHERE ${e1.elem_name <> e2.elem_name:cond1}
ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)`,
			sql: `SELECT e1.landfill_name, e2.landfill_name, e1.elem_name, e2.elem_name
FROM elem_contained AS e1, elem_contained AS e2 WHERE ` + assemblage,
		},
		{
			// 7 and 8 cannot compare with TEXT: each counts as false for
			// its own candidate and raises no error.
			name: "string and numeric candidates against a TEXT column",
			sesql: `SELECT landfill_name, elem_name FROM elem_contained
WHERE ${elem_name = Mixed:c1} ENRICH REPLACECONSTANT(c1, Mixed, mixedQuery)`,
			sql: `SELECT landfill_name, elem_name FROM elem_contained WHERE elem_name IN ('Mercury', 'Lead')`,
		},
		{
			name: "NULL hidden value is dropped",
			sesql: `SELECT landfill_name, elem_name FROM elem_contained
WHERE ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			sql: `SELECT landfill_name, elem_name FROM elem_contained WHERE elem_name IN ` + hazardous,
		},
		{
			name: "NULL hidden value under REPLACEVARIABLE is dropped",
			sesql: `SELECT landfill_name, elem_name FROM elem_contained
WHERE ${elem_name = 'Zinc':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)`,
			sql: `SELECT landfill_name, elem_name FROM elem_contained WHERE elem_name IN ('Lead')`,
		},
		{
			// A condition that maps NULL to a candidate keeps those rows.
			name: "NULL hidden value kept by its condition",
			sesql: `SELECT landfill_name, elem_name FROM elem_contained
WHERE ${COALESCE(elem_name, 'Lead') = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			sql: `SELECT landfill_name, elem_name FROM elem_contained WHERE COALESCE(elem_name, 'Lead') IN ` + hazardous,
		},
		{
			name: "REPLACECONSTANT and REPLACEVARIABLE on the same column",
			sesql: `SELECT elem_name, landfill_name FROM elem_contained
WHERE ${elem_name = HazardousWaste:c1} AND ${elem_name = 'Lead':c2}
ENRICH
REPLACECONSTANT(c1, HazardousWaste, dangerQuery)
REPLACEVARIABLE(c2, elem_name, oreAssemblage)`,
			sql: `SELECT elem_name, landfill_name FROM elem_contained
WHERE elem_name IN ` + hazardous + ` AND elem_name IN ('Mercury')`,
		},
		{
			// LENGTH renders the value: "-0" has two characters, "0" one.
			name: "hidden floats differing only in sign",
			sesql: `SELECT sensor, val FROM reading
WHERE ${LENGTH(val) = Two:c1} ENRICH REPLACECONSTANT(c1, Two, twoQuery)`,
			sql: `SELECT sensor, val FROM reading WHERE LENGTH(val) IN (2)`,
		},
	})
}

// The fixture really holds both zeros, so the signed-zero case above can
// tell a memo keyed on == from one keyed on identity.
func TestWhereFixtureSignedZeros(t *testing.T) {
	e := whereFixture(t)
	r, err := e.DB.Query(`SELECT val FROM reading`)
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := 0, 0
	for _, row := range r.Rows {
		if row[0].Type() != sqlval.TypeFloat || row[0].Float() != 0 {
			continue
		}
		if math.Signbit(row[0].Float()) {
			neg++
		} else {
			pos++
		}
	}
	if neg != 3 || pos != 2 {
		t.Fatalf("reading holds %d negative and %d positive zeros, want 3 and 2", neg, pos)
	}
}

// TestSchemaEnrichmentSignedZeros pins the schema-enrichment memo to
// value identity: the KB maps 0.0 and -0.0 to different terms, so a -0.0
// row that follows a 0.0 row must not reuse the 0.0 row's objects.
func TestSchemaEnrichmentSignedZeros(t *testing.T) {
	e := whereFixture(t)
	for _, tr := range []rdf.Triple{
		{S: smg("0"), P: smg("sign"), O: lit("positive")},
		{S: smg("-0"), P: smg("sign"), O: lit("negative")},
	} {
		if _, err := e.Platform.Insert("alice", tr); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"s0|0|positive", "s1|-0|negative", "s2|1.5|NULL",
		"s3|-0|negative", "s4|0|positive", "s5|-0|negative",
	}
	for _, par := range []int{1, 4} {
		e.SetParallelism(par)
		got, err := e.Query("alice", `SELECT sensor, val FROM reading ENRICH SCHEMAEXTENSION(val, sign)`)
		if err != nil {
			t.Fatal(err)
		}
		if rows := rowStrings(got, true); !reflect.DeepEqual(rows, want) {
			t.Errorf("parallelism %d:\n got %v\nwant %v", par, rows, want)
		}
	}
}

// TestDeferredOrderLimit pins the final step a WHERE enrichment defers:
// ORDER BY, LIMIT and OFFSET apply to the filtered rows exactly as the
// plain SQL with the candidates written out applies them, ties in
// arrival order.
func TestDeferredOrderLimit(t *testing.T) {
	e := whereFixture(t)
	const (
		where   = `WHERE ${elem_name = HazardousWaste:c1}`
		enrich  = ` ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`
		inList  = `WHERE elem_name IN ('Mercury', 'Lead', 'Asbestos')`
		project = `SELECT landfill_name, elem_name FROM elem_contained `
	)
	checkAgainstPlainSQL(t, e, []enrichedVsPlain{
		{
			name: "alias-qualified key",
			sesql: `SELECT e.landfill_name, e.elem_name FROM elem_contained e
WHERE ${e.elem_name = HazardousWaste:c1} ORDER BY e.landfill_name LIMIT 6` + enrich,
			sql: `SELECT e.landfill_name, e.elem_name FROM elem_contained e
WHERE e.elem_name IN ('Mercury', 'Lead', 'Asbestos') ORDER BY e.landfill_name LIMIT 6`,
			ordered: true,
		},
		{
			name:    "key not projected",
			sesql:   `SELECT landfill_name FROM elem_contained ` + where + ` ORDER BY elem_name` + enrich,
			sql:     `SELECT landfill_name FROM elem_contained ` + inList + ` ORDER BY elem_name`,
			ordered: true,
			cols:    "landfill_name",
		},
		{
			name:    "output-alias key",
			sesql:   `SELECT landfill_name AS lf, elem_name FROM elem_contained ` + where + ` ORDER BY lf DESC, elem_name` + enrich,
			sql:     `SELECT landfill_name AS lf, elem_name FROM elem_contained ` + inList + ` ORDER BY lf DESC, elem_name`,
			ordered: true,
			cols:    "lf,elem_name",
		},
		{
			name:    "expression key",
			sesql:   project + where + ` ORDER BY LENGTH(elem_name) DESC, landfill_name` + enrich,
			sql:     project + inList + ` ORDER BY LENGTH(elem_name) DESC, landfill_name`,
			ordered: true,
		},
		{
			name:    "expression key over a column not projected",
			sesql:   `SELECT landfill_name FROM elem_contained ` + where + ` ORDER BY UPPER(elem_name) DESC LIMIT 5` + enrich,
			sql:     `SELECT landfill_name FROM elem_contained ` + inList + ` ORDER BY UPPER(elem_name) DESC LIMIT 5`,
			ordered: true,
		},
		{
			name:    "DESC with ties under LIMIT",
			sesql:   project + where + ` ORDER BY landfill_name DESC LIMIT 4` + enrich,
			sql:     project + inList + ` ORDER BY landfill_name DESC LIMIT 4`,
			ordered: true,
		},
		{
			name:    "OFFSET inside the rows",
			sesql:   project + where + ` ORDER BY landfill_name LIMIT 3 OFFSET 2` + enrich,
			sql:     project + inList + ` ORDER BY landfill_name LIMIT 3 OFFSET 2`,
			ordered: true,
		},
		{
			name:    "OFFSET past the end",
			sesql:   project + where + ` ORDER BY landfill_name LIMIT 5 OFFSET 100` + enrich,
			sql:     project + inList + ` ORDER BY landfill_name LIMIT 5 OFFSET 100`,
			ordered: true,
			cols:    "landfill_name,elem_name",
		},
		{
			name:    "LIMIT 0",
			sesql:   project + where + ` ORDER BY landfill_name LIMIT 0` + enrich,
			sql:     project + inList + ` ORDER BY landfill_name LIMIT 0`,
			ordered: true,
			cols:    "landfill_name,elem_name",
		},
		{
			name:    "LIMIT and OFFSET without ORDER BY",
			sesql:   project + where + ` LIMIT 3 OFFSET 1` + enrich,
			sql:     project + inList + ` LIMIT 3 OFFSET 1`,
			ordered: true,
		},
		{
			// The key names the schema enrichment's own column; the plain
			// side reads the same facts from the danger table.
			name: "schema enrichment after the WHERE enrichment",
			sesql: `SELECT elem_name, landfill_name FROM elem_contained ` + where + `
ORDER BY dangerLevel DESC, landfill_name LIMIT 5` + enrich + `
SCHEMAEXTENSION(elem_name, dangerLevel)`,
			sql: `SELECT elem_name, landfill_name, level FROM elem_contained LEFT JOIN danger ON elem = elem_name
` + inList + ` ORDER BY level DESC, landfill_name LIMIT 5`,
			ordered: true,
			cols:    "elem_name,landfill_name,dangerLevel",
		},
	})
}
