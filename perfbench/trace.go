package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crosse/internal/core"
	"crosse/internal/fdw"
	"crosse/internal/rdf"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the rung directly above, whose self time this span's
// duration is subtracted from. N carries the rung's count (response bytes,
// solutions, rows); Note the executor's serial-fallback reason.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Note   string `json:"note,omitempty"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// selfTimes returns, per span name, the self time (µs) of each span: its
// duration minus the durations of the spans of the same request whose
// parent it is. A name that occurs twice in one request takes its
// children's time off its first occurrence.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		req  uint64
		name string
	}
	children := map[key]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.us()
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		k := key{s.Req, s.Name}
		self := s.us() - children[k]
		delete(children, k)
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// recorder keeps one client's spans and the core.Stats of its core rungs.
type recorder struct {
	base   time.Time
	spans  []span
	stages []core.Stats
	acks   []ack
}

// time runs fn as one span and returns it for the caller to annotate.
func (r *recorder) time(req uint64, name, parent string, fn func()) *span {
	t0 := time.Since(r.base)
	fn()
	t1 := time.Since(r.base)
	r.spans = append(r.spans, span{Req: req, Name: name, Parent: parent, Start: int64(t0), End: int64(t1)})
	return &r.spans[len(r.spans)-1]
}

// ladder replays requests down the public entry points, one rung per
// layer: the loopback POST, the REST handler, the enricher, and under it
// the SESQL parser, the SQL executor, the SPARQL executor and the foreign
// tables; writes go HTTP, handler, Journal.Insert, each inserting a fresh
// statement of the same shape. The handler rung runs on
// a second REST server and the enricher rung on a third enricher, each
// with its own caches, so every rung sees the same request stream and the
// same cache hits as the served system.
type ladder struct {
	sys     *system
	handler http.Handler
	core    *core.Enricher
	foreign map[string]*fdw.ForeignTable
	base    time.Time
	nextReq atomic.Uint64

	mu   sync.Mutex
	recs []*recorder
}

func newLadder(sys *system) (*ladder, error) {
	j := sys.journal
	srv, _ := newServer(sys.wl, newEnricher(j), j)
	l := &ladder{sys: sys, handler: srv.Handler(), core: newEnricher(j), base: time.Now()}
	if sys.fdwClient != nil {
		l.foreign = map[string]*fdw.ForeignTable{}
		for _, t := range []string{"landfill", "elem_contained"} {
			ft, err := sys.fdwClient.ForeignTable(t, "remote_"+t)
			if err != nil {
				return nil, err
			}
			l.foreign[t] = ft
		}
	}
	return l, nil
}

// executor returns client i's traced executor.
func (l *ladder) executor(c *client) executor {
	rec := &recorder{base: l.base}
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return func(r request) (string, error) { return l.replay(c, rec, r) }
}

func (l *ladder) replay(c *client, rec *recorder, r request) (string, error) {
	req := l.nextReq.Add(1)
	// Writes get their own rung names so read and write figures stay apart.
	httpRung, restRung := "http", "rest"
	if r.kind == writeStmt {
		httpRung, restRung = "http.write", "rest.write"
	}
	var id string
	var err error
	rec.time(req, httpRung, "", func() { id, err = c.post(r) })
	if err != nil {
		return "", err
	}

	path, body := encode(r)
	w := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	hs := rec.time(req, restRung, httpRung, func() { l.handler.ServeHTTP(w, hreq) })
	hs.N = int64(w.Body.Len())
	if w.Code/100 != 2 {
		return "", fmt.Errorf("handler rung %s: status %d: %.200s", r.shape, w.Code, w.Body.Bytes())
	}

	switch r.kind {
	case writeStmt:
		var out struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(w.Body.Bytes(), &out) == nil {
			rec.acks = append(rec.acks, ack{id: out.ID, r: r})
		}
		m := l.core.Mapping
		t := rdf.Triple{S: m.PropertyIRI(r.subject), P: m.PropertyIRI("dangerLevel"), O: rdf.NewLiteral(r.object)}
		var jid string
		rec.time(req, "journal.insert", restRung, func() { jid, err = l.sys.journal.Insert(r.user, t) })
		if err != nil {
			return "", fmt.Errorf("journal rung: %w", err)
		}
		rec.acks = append(rec.acks, ack{id: jid, r: r})
	case readSPARQL:
		err = l.sparqlRungs(rec, req, restRung, r.user, r.text)
	case readSESQL:
		if !cacheHit(w.Body.Bytes()) {
			err = l.coreRungs(rec, req, r)
		}
	}
	return id, err
}

// cacheHit reports whether a query answer says the result cache served it.
func cacheHit(body []byte) bool {
	var out struct {
		Stats struct {
			CacheHit bool `json:"cache_hit"`
		} `json:"stats"`
	}
	return json.Unmarshal(body, &out) == nil && out.Stats.CacheHit
}

// coreRungs evaluates r on the enricher, then replays the pipeline's
// parts from the returned core.Stats: the SESQL parse, the base SQL (at
// default parallelism and at Parallelism 1), each SPARQL query, and the
// foreign-table access of a remote_ query.
func (l *ladder) coreRungs(rec *recorder, req uint64, r request) error {
	ctx := context.Background()
	var st *core.Stats
	var err error
	rec.time(req, "core", "rest", func() { _, st, err = l.core.QueryStatsContext(ctx, r.user, r.text) })
	if err != nil {
		return fmt.Errorf("core rung %s: %w", r.shape, err)
	}
	rec.stages = append(rec.stages, *st)

	rec.time(req, "sesql.parse", "core", func() { _, err = sesql.Parse(r.text) })
	if err != nil {
		return err
	}
	if st.BaseSQLText != "" {
		if err := l.sqlRungs(rec, req, st.BaseSQLText, r.remote); err != nil {
			return fmt.Errorf("sqlexec rung %s: %w", r.shape, err)
		}
	}
	for _, q := range st.SPARQLQueries {
		if err := l.sparqlRungs(rec, req, "core", r.user, q); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) sqlRungs(rec *recorder, req uint64, text string, remote *remoteScan) error {
	db := l.sys.journal.DB().Catalog()
	var plan, serial *sqlexec.SelectPlan
	var err error
	rec.time(req, "sqlexec.compile", "core", func() {
		var sel *sqlparser.Select
		if sel, err = sqlparser.ParseSelect(text); err == nil {
			plan, err = sqlexec.CompileOpts(db, sel, sqlexec.Options{})
		}
	})
	if err != nil {
		return err
	}
	var res *sqlexec.Result
	run := rec.time(req, "sqlexec.run", "core", func() { res, err = plan.RunContext(context.Background()) })
	if err != nil {
		return err
	}
	run.Note = res.ParallelFallback
	if remote != nil {
		if err := l.fdwRung(rec, req, remote); err != nil {
			return err
		}
	}

	sel, err := sqlparser.ParseSelect(text)
	if err == nil {
		serial, err = sqlexec.CompileOpts(db, sel, sqlexec.Options{Parallelism: 1})
	}
	if err != nil {
		return err
	}
	rec.time(req, "sqlexec.serial_run", "", func() { _, err = serial.RunContext(context.Background()) })
	return err
}

// fdwRung repeats a remote_ query's foreign-table access on its own: the
// pushed-down equality lookup or the full scan.
func (l *ladder) fdwRung(rec *recorder, req uint64, remote *remoteScan) error {
	ft := l.foreign[remote.table]
	var rows int64
	count := func([]sqlval.Value) bool { rows++; return true }
	var err error
	s := rec.time(req, "fdw.scan", "sqlexec.run", func() {
		if remote.col != "" {
			err = ft.ScanEq(remote.col, sqlval.NewString(remote.value), count)
		} else {
			err = ft.Scan(count)
		}
	})
	s.N = rows
	return err
}

func (l *ladder) sparqlRungs(rec *recorder, req uint64, parent, user, text string) error {
	view, err := l.sys.journal.Platform().View(user)
	if err != nil {
		return err
	}
	var plan *sparql.Plan
	rec.time(req, "sparql.compile", parent, func() {
		var q *sparql.Query
		if q, err = sparql.Parse(text); err == nil {
			plan, err = sparql.Compile(q)
		}
	})
	if err != nil {
		return fmt.Errorf("sparql rung: %w", err)
	}
	var n int64
	stream := rec.time(req, "sparql.stream", parent, func() {
		_, err = plan.StreamInfoOpts(view, sparql.Options{}, func(sparql.Solution) bool { n++; return true })
	})
	stream.N = n
	if err != nil {
		return fmt.Errorf("sparql rung: %w", err)
	}
	rec.time(req, "sparql.serial_stream", "", func() {
		_, err = plan.StreamInfoOpts(view, sparql.Options{Parallelism: 1}, func(sparql.Solution) bool { return true })
	})
	return err
}

// collect merges every client's spans, stages and acknowledged inserts.
func (l *ladder) collect() (spans []span, stages []core.Stats, acks []ack) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		spans = append(spans, r.spans...)
		stages = append(stages, r.stages...)
		acks = append(acks, r.acks...)
	}
	return spans, stages, acks
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the traced phase's spans and core stats into the
// per-layer figures.
func layerMetrics(spans []span, stages []core.Stats, m metrics) {
	durs := map[string][]float64{}
	ns := map[string]int64{}
	fallbacks := 0
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.us())
		ns[s.Name] += s.N
		if s.Name == "sqlexec.run" && s.Note != "" {
			fallbacks++
		}
	}
	self := selfTimes(spans)

	// Per-layer tails stop at p90: a traced phase replays every request
	// several times over, so it holds too few requests for a p99 with
	// minBeyond samples beyond it.
	tail := func(name, metric string) {
		m.add(metric+"_p50", "us", loosePercentile(durs[name], 0.50))
		m.add(metric+"_p90", "us", loosePercentile(durs[name], 0.90))
	}
	tail("http", "http.roundtrip_us")
	m.add("http.self_us", "us", mean(self["http"]))
	tail("rest", "rest.handler_us")
	m.add("rest.self_us", "us", mean(self["rest"]))
	m.add("rest.response_bytes", "B", ratio(float64(ns["rest"]), float64(len(durs["rest"]))))
	tail("core", "core.query_us")
	m.add("core.self_us", "us", mean(self["core"]))
	tail("journal.insert", "core.journal_insert_us")
	tail("http.write", "http.write_roundtrip_us")
	m.add("sesql.parse_us", "us", mean(durs["sesql.parse"]))

	var parse, base, sq, join, final []float64
	var baseRows, finalRows float64
	for _, st := range stages {
		parse = append(parse, us(st.Parse))
		base = append(base, us(st.BaseSQL))
		sq = append(sq, us(st.SPARQL))
		join = append(join, us(st.Join))
		final = append(final, us(st.FinalSQL))
		baseRows += float64(st.BaseRows)
		finalRows += float64(st.FinalRows)
	}
	m.add("core.parse_us", "us", mean(parse))
	m.add("core.base_sql_us", "us", mean(base))
	m.add("core.sparql_us", "us", mean(sq))
	m.add("core.join_us", "us", mean(join))
	m.add("core.final_sql_us", "us", mean(final))
	m.add("core.rows_examined_per_result", "ratio", ratio(baseRows, finalRows))

	m.add("sqlexec.compile_us", "us", mean(durs["sqlexec.compile"]))
	m.add("sqlexec.run_us", "us", mean(durs["sqlexec.run"]))
	m.add("sqlexec.serial_run_us", "us", mean(durs["sqlexec.serial_run"]))
	m.add("sqlexec.parallel_speedup", "x", ratio(sum(durs["sqlexec.serial_run"]), sum(durs["sqlexec.run"])))
	m.add("sqlexec.fallback_share", "ratio", ratio(float64(fallbacks), float64(len(durs["sqlexec.run"]))))

	m.add("sparql.compile_us", "us", mean(durs["sparql.compile"]))
	m.add("sparql.stream_us", "us", mean(durs["sparql.stream"]))
	m.add("sparql.solutions", "count", ratio(float64(ns["sparql.stream"]), float64(len(durs["sparql.stream"]))))
	m.add("sparql.parallel_speedup", "x", ratio(sum(durs["sparql.serial_stream"]), sum(durs["sparql.stream"])))

	m.add("fdw.us_per_row", "us", ratio(sum(durs["fdw.scan"]), float64(ns["fdw.scan"])))
	m.add("trace.spans", "count", float64(len(spans)))
}
