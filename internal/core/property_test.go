package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// randomFixture builds a databank + KB with randomized (seeded) content so
// the enrichment invariants are checked beyond the paper's hand-picked
// values.
func randomFixture(t *testing.T, seed int64) *Enricher {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Catalog().Table("elem_contained")
	elems := []string{"E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7"}
	for i := 0; i < 60; i++ {
		row, _ := engine.Row(elems[rng.Intn(len(elems))], fmt.Sprintf("L%d", rng.Intn(6)))
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("u"); err != nil {
		t.Fatal(err)
	}
	for _, e := range elems {
		if rng.Intn(2) == 0 {
			if _, err := p.Insert("u", rdf.Triple{
				S: rdf.NewIRI(DefaultIRIPrefix + e),
				P: rdf.NewIRI(DefaultIRIPrefix + "isA"),
				O: rdf.NewIRI(DefaultIRIPrefix + "HazardousWaste"),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) > 0 {
			if _, err := p.Insert("u", rdf.Triple{
				S: rdf.NewIRI(DefaultIRIPrefix + e),
				P: rdf.NewIRI(DefaultIRIPrefix + "dangerLevel"),
				O: rdf.NewLiteral(fmt.Sprintf("lvl%d", rng.Intn(3))),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return New(db, p, nil)
}

// Property: SCHEMAEXTENSION followed by projecting away the new column is
// the raw SQL result, up to fan-out duplication from multi-valued
// properties (here properties are single-valued, so exact equality holds).
func TestExtensionProjectionInvariant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		enr := randomFixture(t, seed)
		raw, err := enr.Query("u", `SELECT elem_name, landfill_name FROM elem_contained`)
		if err != nil {
			t.Fatal(err)
		}
		enriched, err := enr.Query("u", `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
		if err != nil {
			t.Fatal(err)
		}
		var a, b []string
		for _, r := range raw.Rows {
			a = append(a, r[0].String()+"|"+r[1].String())
		}
		for _, r := range enriched.Rows {
			b = append(b, r[0].String()+"|"+r[1].String())
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: projection invariant broken:\nraw      %v\nenriched %v", seed, a, b)
		}
	}
}

// Property: the true-set of BOOLSCHEMAEXTENSION equals the SPARQL answer
// set intersected with the column's values.
func TestBoolExtensionMatchesSPARQL(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		enr := randomFixture(t, seed)
		res, err := enr.Query("u", `SELECT elem_name FROM elem_contained
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`)
		if err != nil {
			t.Fatal(err)
		}
		trueSet := map[string]bool{}
		colValues := map[string]bool{}
		for _, r := range res.Rows {
			colValues[r[0].Str()] = true
			if r[1].Bool() {
				trueSet[r[0].Str()] = true
			} else if trueSet[r[0].Str()] {
				t.Fatalf("seed %d: inconsistent boolean for %s", seed, r[0].Str())
			}
		}
		view, err := enr.Platform.View("u")
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sparql.EvalOpts(view, `SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`isA> <`+DefaultIRIPrefix+`HazardousWaste> }`, sparql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, b := range sres.Bindings {
			name := strings.TrimPrefix(b["x"].Value, DefaultIRIPrefix)
			if colValues[name] {
				want[name] = true
			}
		}
		if !reflect.DeepEqual(trueSet, want) {
			t.Fatalf("seed %d: true-set %v != SPARQL∩column %v", seed, trueSet, want)
		}
	}
}

// Property: REPLACECONSTANT with a property that lists explicit values is
// equivalent to the IN-list SQL query over the same values.
func TestReplaceConstantEqualsInList(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		enr := randomFixture(t, seed)
		// Gather the hazardous set from the KB directly.
		view, _ := enr.Platform.View("u")
		sres, err := sparql.EvalOpts(view, `SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`isA> <`+DefaultIRIPrefix+`HazardousWaste> }`, sparql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, b := range sres.Bindings {
			names = append(names, "'"+strings.TrimPrefix(b["x"].Value, DefaultIRIPrefix)+"'")
		}
		if len(names) == 0 {
			continue
		}
		if err := enr.Platform.RegisterQuery("u", fmt.Sprintf("hz%d", seed),
			`SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`isA> <`+DefaultIRIPrefix+`HazardousWaste> }`); err != nil {
			t.Fatal(err)
		}

		sesqlRes, err := enr.Query("u", fmt.Sprintf(`SELECT landfill_name FROM elem_contained
WHERE ${elem_name = Hazardous:c1}
ENRICH REPLACECONSTANT(c1, Hazardous, hz%d)`, seed))
		if err != nil {
			t.Fatal(err)
		}
		sqlRes, err := enr.DB.Query(`SELECT landfill_name FROM elem_contained WHERE elem_name IN (` +
			strings.Join(names, ",") + `)`)
		if err != nil {
			t.Fatal(err)
		}
		var a, b []string
		for _, r := range sesqlRes.Rows {
			a = append(a, r[0].String())
		}
		for _, r := range sqlRes.Rows {
			b = append(b, r[0].String())
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: REPLACECONSTANT %v != IN-list %v", seed, a, b)
		}
	}
}

// Property: enrichment is context-monotone for BOOLSCHEMAEXTENSION —
// adding knowledge never flips true to false.
func TestBoolExtensionMonotone(t *testing.T) {
	enr := randomFixture(t, 42)
	const q = `SELECT elem_name FROM elem_contained
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`
	before, err := enr.Query("u", q)
	if err != nil {
		t.Fatal(err)
	}
	trueBefore := map[string]bool{}
	for _, r := range before.Rows {
		if r[1].Bool() {
			trueBefore[r[0].Str()] = true
		}
	}
	// Add more knowledge.
	if _, err := enr.Platform.Insert("u", rdf.Triple{
		S: rdf.NewIRI(DefaultIRIPrefix + "E0"),
		P: rdf.NewIRI(DefaultIRIPrefix + "isA"),
		O: rdf.NewIRI(DefaultIRIPrefix + "HazardousWaste"),
	}); err != nil {
		t.Fatal(err)
	}
	after, err := enr.Query("u", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after.Rows {
		if trueBefore[r[0].Str()] && !r[1].Bool() {
			t.Fatalf("monotonicity broken for %s", r[0].Str())
		}
	}
}
