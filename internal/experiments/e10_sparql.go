package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// RunE10 measures the SPARQL engine over growing stores: a two-pattern BGP
// join, a FILTER query, and a transitive property path — each both through
// the full parse+compile+eval pipeline and as a pre-compiled plan (the form
// the enrichment pipeline's QueryCache executes on a hit). Expected shape:
// the BGP join is driven by the selective pattern (near-flat), the filter
// scan grows linearly with matching triples, the path closure grows with
// reachable-set size, and the plan column tracks the eval column closely
// since planning is a few microseconds — the cache's win is architectural
// (no per-call lexing/parsing), not the bulk of query latency.
func RunE10(w io.Writer, quick bool) error {
	header(w, "E10", "SPARQL engine micro-benchmarks")
	sizes := []int{2000, 10000, 50000}
	if quick {
		sizes = []int{1000, 5000}
	}
	reps := 5
	if quick {
		reps = 3
	}

	const ns = "http://smartground.eu/onto#"
	queries := []struct{ name, q string }{
		{"BGP join", `SELECT ?x ?l WHERE { ?x <` + ns + `isA> <` + ns + `Hazard> . ?x <` + ns + `level> ?l }`},
		{"filter", `SELECT ?x WHERE { ?x <` + ns + `level> ?l . FILTER (?l > 7) }`},
		{"path +", `SELECT ?c WHERE { <` + ns + `class0> <` + ns + `sub>+ ?c }`},
	}

	cols := append([]string{"triples"}, qnames(queries)...)
	cols = append(cols, "BGP join (plan)")
	tab := newTable(cols...)
	for _, n := range sizes {
		st := rdf.NewStore()
		rng := rand.New(rand.NewSource(9))
		// 10% hazard facts, everything gets a level, plus a deep subclass chain.
		for i := 0; i < n; i++ {
			s := rdf.NewIRI(fmt.Sprintf("%selem%d", ns, i))
			if i%10 == 0 {
				st.Add(rdf.Triple{S: s, P: rdf.NewIRI(ns + "isA"), O: rdf.NewIRI(ns + "Hazard")})
			}
			st.Add(rdf.Triple{S: s, P: rdf.NewIRI(ns + "level"),
				O: rdf.NewTypedLiteral(fmt.Sprint(rng.Intn(10)), rdf.XSDInteger)})
		}
		for i := 0; i < 60; i++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i)),
				P: rdf.NewIRI(ns + "sub"),
				O: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i+1)),
			})
		}

		cells := []any{st.Len()}
		for _, q := range queries {
			med, err := medianOf(reps, func() error {
				_, err := sparql.EvalOpts(st, q.q, sparql.Options{})
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			cells = append(cells, med)
		}

		// The cached-plan path: compile the BGP join once, evaluate per rep.
		parsed, err := sparql.Parse(queries[0].q)
		if err != nil {
			return err
		}
		plan, err := sparql.Compile(parsed)
		if err != nil {
			return err
		}
		med, err := medianOf(reps, func() error {
			_, err := plan.EvalOpts(st, sparql.Options{})
			return err
		})
		if err != nil {
			return fmt.Errorf("BGP join (plan): %w", err)
		}
		cells = append(cells, med)
		tab.add(cells...)
	}
	tab.write(w)
	return nil
}

func qnames(qs []struct{ name, q string }) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.name
	}
	return out
}
