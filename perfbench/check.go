package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"crosse/internal/core"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// checkReport records what the answer and durability checks covered.
type checkReport struct {
	Reads        int      `json:"reads_checked"`
	Hits         int      `json:"cache_hits_checked"`
	KnownFailing int      `json:"known_failing"`
	Acked        int      `json:"inserts_acked"`
	Durable      int      `json:"inserts_recovered"`
	Mismatches   []string `json:"mismatches,omitempty"`
}

func (c *checkReport) fail(format string, args ...any) {
	if len(c.Mismatches) < 10 {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(format, args...))
	}
}

// answer is a read's result in wire form, or the error it failed with.
type answer struct {
	cols     []string
	rows     [][]string
	binds    []map[string]string
	err      string
	cacheHit bool
}

// same compares two answers. Without ORDER BY a query's row order is
// unspecified (SPARQL solutions come out in hash order), so rows are then
// compared as multisets.
func (a answer) same(b answer, ordered bool) bool {
	if (a.err == "") != (b.err == "") {
		return false
	}
	return a.canonical(ordered) == b.canonical(ordered)
}

func (a answer) canonical(ordered bool) string {
	lines := make([]string, 0, len(a.rows)+len(a.binds))
	for _, r := range a.rows {
		lines = append(lines, fmt.Sprintf("%q", r))
	}
	for _, b := range a.binds {
		lines = append(lines, fmt.Sprintf("%q", b))
	}
	if !ordered {
		sort.Strings(lines)
	}
	return fmt.Sprintf("%q\n%s", a.cols, strings.Join(lines, "\n"))
}

func (a answer) String() string {
	if a.err != "" {
		return "error " + a.err
	}
	return fmt.Sprintf("%d rows %d bindings", len(a.rows), len(a.binds))
}

// fetch sends a read over HTTP and decodes the answer.
func fetch(c *client, r request) (answer, error) {
	if _, err := c.post(r); err != nil {
		if strings.Contains(err.Error(), "status ") {
			return answer{err: err.Error()}, nil
		}
		return answer{}, err
	}
	var out struct {
		Columns  []string            `json:"columns"`
		Rows     [][]string          `json:"rows"`
		Vars     []string            `json:"vars"`
		Bindings []map[string]string `json:"bindings"`
		Stats    struct {
			CacheHit bool `json:"cache_hit"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &out); err != nil {
		return answer{}, fmt.Errorf("decode %s answer: %w", r.shape, err)
	}
	if r.kind == readSPARQL {
		return answer{cols: out.Vars, binds: out.Bindings, cacheHit: out.Stats.CacheHit}, nil
	}
	return answer{cols: out.Columns, rows: out.Rows, cacheHit: out.Stats.CacheHit}, nil
}

// oracle evaluates reads with core.Enricher at Parallelism 1 and the
// serial SPARQL path, on the state the server serves.
type oracle struct{ e *core.Enricher }

func newOracle(sys *system) *oracle {
	e := core.New(sys.journal.DB(), sys.journal.Platform(), nil)
	e.SetParallelism(1)
	return &oracle{e: e}
}

func (o *oracle) answer(r request) answer {
	if r.kind == readSPARQL {
		view, err := o.e.Platform.View(r.user)
		if err != nil {
			return answer{err: err.Error()}
		}
		res, err := sparql.EvalOpts(view, r.text, sparql.Options{Parallelism: 1})
		if err != nil {
			return answer{err: err.Error()}
		}
		return answer{cols: res.Vars, binds: renderBindings(res.Bindings)}
	}
	res, err := o.e.Query(r.user, r.text)
	if err != nil {
		return answer{err: err.Error()}
	}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	return answer{cols: res.Columns, rows: rows}
}

func renderBindings(bs []sparql.Binding) []map[string]string {
	out := make([]map[string]string, len(bs))
	for i, b := range bs {
		m := make(map[string]string, len(b))
		for v, t := range b {
			m[v] = t.Value
		}
		out[i] = m
	}
	return out
}

// checkAnswers replays a seeded sample of the workload's reads over HTTP
// against the quiesced server and compares each with the serial oracle.
// With checkHits, each read is sent twice and the second answer, which
// must be a cache hit, is compared too. The known-failing queries must
// fail or succeed exactly as the oracle does.
func checkAnswers(sys *system, seed int64, rep *checkReport) error {
	c := newClient(sys.url)
	defer c.close()
	o := newOracle(sys)
	g := newGenerator(sys.wl, seed, checkStream)
	for i := 0; i < sys.wl.checkReads; i++ {
		r := sys.wl.read(g)
		got, err := fetch(c, r)
		if err != nil {
			return err
		}
		want := o.answer(r)
		ordered := strings.Contains(r.text, "ORDER BY")
		rep.Reads++
		if want.err != "" || !got.same(want, ordered) {
			rep.fail("%s for %s: server %v, oracle %v", r.shape, r.user, got, want)
			continue
		}
		if !sys.wl.checkHits {
			continue
		}
		hit, err := fetch(c, r)
		if err != nil {
			return err
		}
		rep.Hits++
		if !hit.cacheHit || !hit.same(want, ordered) {
			rep.fail("%s for %s: cache hit %t answered %v, oracle %v", r.shape, r.user, hit.cacheHit, hit, want)
		}
	}
	for _, text := range sys.wl.knownFailing {
		r := request{kind: readSESQL, shape: "known-failing", user: userName(0), text: text}
		got, err := fetch(c, r)
		if err != nil {
			return err
		}
		want := o.answer(r)
		if !got.same(want, true) {
			rep.fail("known-failing %q: server %v, oracle %v", text, got, want)
		}
		if want.err != "" {
			rep.KnownFailing++
		}
	}
	return nil
}

// checkDurability closes the system, reopens its journal directory and
// requires every acknowledged insert to be present in its user's view.
func checkDurability(sys *system, acks []ack, rep *checkReport) error {
	if err := sys.close(); err != nil {
		return fmt.Errorf("close system: %w", err)
	}
	j, restored, err := core.OpenJournal(sys.dir, core.JournalOptions{Sync: journalSync, SyncEvery: syncEvery}, bootstrap(sys.wl))
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	defer j.Close()
	if !restored {
		return fmt.Errorf("reopen journal: nothing recovered from %s", sys.dir)
	}
	m := core.NewMapping("")
	p := j.Platform()
	rep.Acked = len(acks)
	for _, a := range acks {
		want := rdf.Triple{S: m.PropertyIRI(a.r.subject), P: m.PropertyIRI("dangerLevel"), O: rdf.NewLiteral(a.r.object)}
		st, err := p.Statement(a.id)
		if err != nil || st.Triple != want || !st.BelievedBy(a.r.user) {
			rep.fail("insert %s by %s lost or changed after reopen", a.id, a.r.user)
			continue
		}
		view, err := p.View(a.r.user)
		if err != nil || view.Count(rdf.Pattern{S: want.S, P: want.P, O: want.O}) != 1 {
			rep.fail("insert %s missing from %s's view after reopen", a.id, a.r.user)
			continue
		}
		rep.Durable++
	}
	return nil
}
