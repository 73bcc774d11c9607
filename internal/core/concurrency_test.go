package core

import (
	"fmt"
	"sync"
	"testing"

	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// TestConcurrentQueriesAndAnnotations exercises the platform the way a
// multi-user deployment does: queries, annotations and imports racing.
// Run with -race to validate the locking story.
func TestConcurrentQueriesAndAnnotations(t *testing.T) {
	e := fixture(t)
	e.Activity = NewActivity()
	const workers = 6
	for w := 0; w < workers; w++ {
		if err := e.Platform.RegisterUser(fmt.Sprintf("w%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("w%d", w)
			for i := 0; i < 20; i++ {
				if _, err := e.Platform.Insert(user, rdf.Triple{
					S: smg(fmt.Sprintf("E%d_%d", w, i)),
					P: smg("dangerLevel"),
					O: rdf.NewLiteral("high"),
				}); err != nil {
					errCh <- err
					return
				}
				if _, err := e.Query(user, `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`); err != nil {
					errCh <- err
					return
				}
				if i%5 == 0 {
					if _, err := e.Platform.ImportFrom(user, "alice", nil); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Activity recorded for every worker.
	for w := 0; w < workers; w++ {
		if e.Activity.QueryCount(fmt.Sprintf("w%d", w)) != 20 {
			t.Errorf("w%d query count = %d", w, e.Activity.QueryCount(fmt.Sprintf("w%d", w)))
		}
	}
}

// TestConcurrentImportRetractVsStreamedQueries races belief imports and
// retractions against streamed SPARQL and full SESQL enrichment over the
// overlay views: many users share one crowdsourced corpus held once in the
// platform's encoded arena, mutate their own overlays, and query
// concurrently. Run with -race to validate the arena/view locking story
// (mutations must never invalidate an in-flight read transaction).
func TestConcurrentImportRetractVsStreamedQueries(t *testing.T) {
	e := fixture(t)
	const workers = 6

	// Shared corpus: one expert owns a few hundred statements.
	if err := e.Platform.RegisterUser("expert"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := e.Platform.Insert("expert", rdf.Triple{
			S: smg(fmt.Sprintf("Elem%d", i)),
			P: smg("dangerLevel"),
			O: rdf.NewLiteral("high"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		if err := e.Platform.RegisterUser(fmt.Sprintf("r%d", w)); err != nil {
			t.Fatal(err)
		}
	}

	sparqlText := `SELECT ?x ?l WHERE { ?x <` + DefaultIRIPrefix + `dangerLevel> ?l }`
	parsed, err := sparql.Parse(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		user := fmt.Sprintf("r%d", w)

		wg.Add(1)
		go func() { // mutator: import the corpus, retract own beliefs, repeat
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Platform.ImportFrom(user, "expert", nil); err != nil {
					errCh <- err
					return
				}
				// Insert and immediately retract an owned statement so
				// owner-retraction races the other users' reads too.
				id, err := e.Platform.Insert(user, rdf.Triple{
					S: smg(fmt.Sprintf("Own%s_%d", user, i)),
					P: smg("dangerLevel"),
					O: rdf.NewLiteral("low"),
				})
				if err != nil {
					errCh <- err
					return
				}
				if err := e.Platform.Retract(user, id); err != nil {
					errCh <- err
					return
				}
				// Retract an imported belief (non-owner retraction).
				for _, st := range e.Platform.Explore(func(s *kb.Statement) bool {
					return s.Owner == "expert"
				})[:1] {
					if err := e.Platform.Retract(user, st.ID); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()

		wg.Add(1)
		go func() { // reader: streamed SPARQL over the user's overlay view
			defer wg.Done()
			for i := 0; i < 25; i++ {
				view, err := e.Platform.View(user)
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				if _, err := plan.StreamInfoOpts(view, sparql.Options{}, func(s sparql.Solution) bool {
					n++
					return true
				}); err != nil {
					errCh <- err
					return
				}
			}
		}()

		wg.Add(1)
		go func() { // reader: full SESQL enrichment pipeline
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Query(user, `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Post-race sanity: the corpus is still held once in the shared arena
	// and every surviving view is consistent with its statements.
	for w := 0; w < workers; w++ {
		user := fmt.Sprintf("r%d", w)
		want := 0
		for _, st := range e.Platform.Explore(nil) {
			if st.BelievedBy(user) {
				want++
			}
		}
		if got := e.Platform.ViewSize(user); got != want {
			t.Errorf("%s: view size %d, want %d believed statements", user, got, want)
		}
	}
}
