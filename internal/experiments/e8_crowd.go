package experiments

import (
	"fmt"
	"io"
	"time"

	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// RunE8 measures the crowdsourcing layer (Sec. III-A): one expert publishes
// M statements, N peers import them all, then each queries her own view.
// Expected shape: import cost is linear in statements imported; per-user
// view queries stay independent of the number of peers (views are
// materialised per user), which is what makes the "accept as your own"
// model scale socially.
func RunE8(w io.Writer, quick bool) error {
	header(w, "E8", "Crowdsourced belief import fan-out")
	userCounts := []int{5, 20, 50}
	statements := 2000
	if quick {
		userCounts = []int{3, 10}
		statements = 400
	}

	tab := newTable("peers", "statements", "publish", "import all (total)", "import/peer", "view query")
	for _, users := range userCounts {
		p := kb.NewPlatform()
		if err := p.RegisterUser("expert"); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < statements; i++ {
			_, err := p.Insert("expert", rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://smartground.eu/onto#elem%d", i)),
				P: rdf.NewIRI("http://smartground.eu/onto#dangerLevel"),
				O: rdf.NewLiteral("high"),
			})
			if err != nil {
				return err
			}
		}
		publish := time.Since(t0)

		t0 = time.Now()
		for u := 0; u < users; u++ {
			name := fmt.Sprintf("peer%02d", u)
			if err := p.RegisterUser(name); err != nil {
				return err
			}
			if _, err := p.ImportFrom(name, "expert", nil); err != nil {
				return err
			}
		}
		importAll := time.Since(t0)

		// Each peer queries her own materialised view.
		view, err := p.View("peer00")
		if err != nil {
			return err
		}
		q := `SELECT ?x WHERE { ?x <http://smartground.eu/onto#dangerLevel> "high" } LIMIT 10`
		viewQuery, err := medianOf(5, func() error {
			_, err := sparql.EvalOpts(view, q, sparql.Options{})
			return err
		})
		if err != nil {
			return err
		}

		tab.add(users, statements, publish, importAll, importAll/time.Duration(users), viewQuery)
	}
	tab.write(w)
	return nil
}
