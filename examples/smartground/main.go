// Smartground reproduces the paper's full running scenario: the Fig. 3
// databank fragment, a researcher's contextual knowledge base with a stored
// SPARQL query, and all six worked examples of Section IV (4.1-4.6),
// printing each SESQL query next to its enriched result and the Fig. 6
// stage timings.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

func smg(local string) rdf.Term { return rdf.NewIRI(core.DefaultIRIPrefix + local) }

func main() {
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
		CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
		INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano'), ('c', 'Lyon');
		INSERT INTO elem_contained VALUES
			('Mercury', 'a'), ('Lead', 'a'), ('Zinc', 'a'),
			('Gold', 'b'), ('Mercury', 'b'), ('Lead', 'c');
	`); err != nil {
		log.Fatal(err)
	}

	platform := kb.NewPlatform()
	if err := platform.RegisterUser("researcher"); err != nil {
		log.Fatal(err)
	}

	// The researcher's context: danger levels, a hazard taxonomy, geography
	// and domain knowledge about element co-occurrence — none of which the
	// databank schema captures (the paper's motivating gap).
	facts := []rdf.Triple{
		{S: smg("Mercury"), P: smg("dangerLevel"), O: rdf.NewLiteral("high")},
		{S: smg("Lead"), P: smg("dangerLevel"), O: rdf.NewLiteral("high")},
		{S: smg("Zinc"), P: smg("dangerLevel"), O: rdf.NewLiteral("low")},
		{S: smg("Mercury"), P: smg("isA"), O: smg("HazardousWaste")},
		{S: smg("Lead"), P: smg("isA"), O: smg("HazardousWaste")},
		{S: smg("Asbestos"), P: smg("isA"), O: smg("HazardousWaste")},
		{S: smg("Torino"), P: smg("inCountry"), O: smg("Italy")},
		{S: smg("Milano"), P: smg("inCountry"), O: smg("Italy")},
		{S: smg("Lyon"), P: smg("inCountry"), O: smg("France")},
		{S: smg("Mercury"), P: smg("oreAssemblage"), O: smg("Lead")},
		{S: smg("Lead"), P: smg("oreAssemblage"), O: smg("Zinc")},
	}
	for _, f := range facts {
		if _, err := platform.Insert("researcher", f,
			kb.WithReference(kb.Reference{Title: "field notebook", Author: "researcher"})); err != nil {
			log.Fatal(err)
		}
	}

	// The paper's stored SPARQL query (Example 4.5): dangerQuery extracts
	// the list of dangerous elements from the contextual ontology.
	if err := platform.RegisterQuery("researcher", "dangerQuery",
		`SELECT ?x WHERE { ?x <`+core.DefaultIRIPrefix+`isA> <`+core.DefaultIRIPrefix+`HazardousWaste> }`); err != nil {
		log.Fatal(err)
	}

	enricher := core.New(db, platform, nil)

	examples := []struct{ title, query string }{
		{"Example 4.1 — SCHEMAEXTENSION", `SELECT elem_name, landfill_name
FROM elem_contained
WHERE landfill_name = 'a'
ENRICH
SCHEMAEXTENSION( elem_name, dangerLevel)`},
		{"Example 4.2 — SCHEMAREPLACEMENT", `SELECT name, city
FROM landfill
ENRICH
SCHEMAREPLACEMENT(city, inCountry)`},
		{"Example 4.3 — BOOLSCHEMAEXTENSION", `SELECT elem_name
FROM elem_contained
WHERE landfill_name = 'a'
ENRICH
BOOLSCHEMAEXTENSION( elem_name, isA, HazardousWaste)`},
		{"Example 4.4 — BOOLSCHEMAREPLACEMENT", `SELECT name, city
FROM landfill
ENRICH
BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)`},
		{"Example 4.5 — REPLACECONSTANT (stored SPARQL query)", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = HazardousWaste:cond1}
ENRICH
REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)`},
		{"Example 4.6 — REPLACEVARIABLE (oreAssemblage)", `SELECT Elecond1.landfill_name AS l_name1,
 Elecond2.landfill_name AS l_name2,
 Elecond1.elem_name
FROM elem_contained AS Elecond1,
 elem_contained AS Elecond2
WHERE ${ Elecond1.elem_name <> Elecond2.elem_name:cond1} AND
 Elecond1.elem_name = Elecond2.elem_name
ENRICH
REPLACEVARIABLE(cond1, Elecond2.elem_name, oreAssemblage)`},
	}

	for _, ex := range examples {
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(ex.title)
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(ex.query)
		fmt.Println()
		res, stats, err := enricher.QueryStatsContext(context.Background(), "researcher", ex.query)
		if err != nil {
			log.Fatalf("%s: %v", ex.title, err)
		}
		fmt.Print(engine.FormatTable(res))
		fmt.Printf("stages: parse %v | base SQL %v | SPARQL %v | join %v | final SQL %v\n\n",
			stats.Parse, stats.BaseSQL, stats.SPARQL, stats.Join, stats.FinalSQL)
	}
}
