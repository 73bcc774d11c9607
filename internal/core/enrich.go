package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Enricher is the Semantic Query Module: it evaluates SESQL queries for a
// user by combining the main platform database with the user's contextual
// knowledge base.
type Enricher struct {
	DB       *engine.DB   // main platform (relational databank)
	Platform *kb.Platform // semantic platform (users, beliefs, stored queries)
	Mapping  *Mapping     // relational ↔ ontology resource mapping
	// Activity, when non-nil, records which properties each user's
	// enriched queries engage (feeds the peer-discovery services).
	Activity *Activity

	// cache memoises compiled SESQL and SPARQL queries by text. Nil
	// disables caching (every call re-parses); New installs one by default.
	cache *QueryCache

	// opts configures both executors for every evaluation; see
	// ExecOptions. The zero value is the production configuration.
	opts ExecOptions
}

// New wires an Enricher. A nil mapping gets the default SmartGround one.
// The enricher starts with a default compiled-query cache; use
// SetQueryCache(nil) to disable it.
func New(db *engine.DB, platform *kb.Platform, mapping *Mapping) *Enricher {
	if mapping == nil {
		mapping = NewMapping("")
	}
	return &Enricher{DB: db, Platform: platform, Mapping: mapping, cache: NewQueryCache(0)}
}

// SetQueryCache replaces the enricher's compiled-query cache. A nil cache
// disables compiled-query reuse (useful for benchmarking the parse path).
func (e *Enricher) SetQueryCache(c *QueryCache) { e.cache = c }

// SetExecOptions replaces the enricher's execution options wholesale. Not
// safe to call concurrently with Query.
func (e *Enricher) SetExecOptions(o ExecOptions) { e.opts = o }

// ExecOptions returns the enricher's current execution options.
func (e *Enricher) ExecOptions() ExecOptions { return e.opts }

// SetParallelism caps intra-query parallelism for the enrichment
// pipeline's SQL and SPARQL evaluation: 0 (the default) means GOMAXPROCS,
// 1 forces the serial executors. Large scans, joins and BGP probes then
// fan out across a bounded worker pool; output is identical at every
// setting. Shorthand for mutating ExecOptions.Parallelism; not safe to
// call concurrently with Query.
func (e *Enricher) SetParallelism(n int) { e.opts.Parallelism = n }

// QueryCacheStats reports the cache's cumulative hits and misses; zeros when
// caching is disabled.
func (e *Enricher) QueryCacheStats() (hits, misses int) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.Stats()
}

// parseSESQL compiles a SESQL text, consulting the cache when enabled.
func (e *Enricher) parseSESQL(text string) (*sesql.Query, error) {
	if e.cache == nil {
		return sesql.Parse(text)
	}
	return e.cache.SESQL(text)
}

// planSQL compiles a SELECT into a physical plan against the main
// platform's catalog, consulting the cache when enabled. Cached plans are
// keyed on the SQL text and the catalog's schema epoch (DDL invalidates,
// data mutations don't), so the enrichment hot path skips column-slot
// resolution and join planning on every repeat query.
func (e *Enricher) planSQL(text string, sel *sqlparser.Select) (*sqlexec.SelectPlan, error) {
	db := e.DB.Catalog()
	opts := e.opts.SQL()
	if e.cache == nil {
		return sqlexec.CompileOpts(db, sel, opts)
	}
	return e.cache.SQLSelect(db, text, opts, func() (*sqlparser.Select, error) { return sel, nil })
}

// PlanSPARQL compiles a SPARQL text into a physical plan, consulting the
// cache when enabled. A cache hit skips lexing, parsing and planning: the
// returned plan is ready for ID-native execution against any KB view.
func (e *Enricher) PlanSPARQL(text string) (*sparql.Plan, error) {
	if e.cache == nil {
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, err
		}
		return sparql.Compile(q)
	}
	return e.cache.SPARQLPlan(text)
}

// Stats reports per-stage timings and artifacts of one SESQL evaluation —
// the observable counterpart of the Fig. 6 architecture, used by experiment
// E4 (stage breakdown).
type Stats struct {
	Parse    time.Duration // SQP: tag scanning + parsing
	BaseSQL  time.Duration // relational query on the main platform
	SPARQL   time.Duration // ontology queries on the user's KB
	Join     time.Duration // JoinManager: combine partial results
	FinalSQL time.Duration // final step: deferred ORDER BY/LIMIT/OFFSET

	BaseRows  int
	FinalRows int

	BaseSQLText   string
	SPARQLQueries []string
	FinalSQLText  string

	// SkippedSources names remote sources that were down and skipped
	// under partial-results degradation (empty on complete results).
	SkippedSources []string

	// ParallelFallback records why query stages fell back to the serial
	// pipeline instead of morsel-driven parallel execution — stage-prefixed
	// reasons ("base-sql: driving scan below parallel threshold";
	// "sparql: parallelism=1") joined by "; ", deduplicated. Empty when
	// every executed stage ran parallel.
	ParallelFallback string
}

// addParallelFallback records one stage's serial-fallback reason,
// deduplicating repeats (a single SESQL evaluation can run many SPARQL
// queries that all decline for the same reason).
func (s *Stats) addParallelFallback(stage, reason string) {
	if reason == "" {
		return
	}
	entry := stage + ": " + reason
	for _, have := range strings.Split(s.ParallelFallback, "; ") {
		if have == entry {
			return
		}
	}
	if s.ParallelFallback != "" {
		s.ParallelFallback += "; "
	}
	s.ParallelFallback += entry
}

// Total returns the end-to-end latency.
func (s *Stats) Total() time.Duration {
	return s.Parse + s.BaseSQL + s.SPARQL + s.Join + s.FinalSQL
}

// Query evaluates a SESQL query in the user's context, unbounded by any
// deadline; QueryStatsContext is the full entry point.
func (e *Enricher) Query(user, text string) (*sqlexec.Result, error) {
	res, _, err := e.QueryStatsContext(context.TODO(), user, text)
	return res, err
}

// QueryStatsContext evaluates a SESQL query in the user's context under
// the enricher's ExecOptions and reports per-stage statistics. Scans over
// remote (context-aware) sources honour ctx's deadline and cancellation,
// so a stalled peer cannot hang the query past its deadline.
func (e *Enricher) QueryStatsContext(ctx context.Context, user, text string) (*sqlexec.Result, *Stats, error) {
	st := &Stats{}

	t0 := time.Now()
	q, err := e.parseSESQL(text)
	st.Parse = time.Since(t0)
	if err != nil {
		return nil, st, err
	}

	view, err := e.Platform.View(user)
	if err != nil {
		return nil, st, err
	}

	if e.Activity != nil && len(q.Enrichments) > 0 {
		props := make([]string, 0, len(q.Enrichments))
		for _, en := range q.Enrichments {
			props = append(props, e.Mapping.PropertyIRI(en.Property).Value)
		}
		e.Activity.Record(user, props)
	}

	// Split enrichments into WHERE-affecting and schema-affecting.
	var whereEnr, schemaEnr []sesql.Enrichment
	for _, en := range q.Enrichments {
		switch en.Kind {
		case sesql.ReplaceConstant, sesql.ReplaceVariable:
			whereEnr = append(whereEnr, en)
		default:
			schemaEnr = append(schemaEnr, en)
		}
	}

	// Fast path: plain SQL through the compiled-plan cache.
	if len(q.Enrichments) == 0 {
		t0 = time.Now()
		plan, err := e.planSQL(q.SQL, q.Select)
		if err != nil {
			st.BaseSQL = time.Since(t0)
			st.BaseSQLText = q.SQL
			return nil, st, err
		}
		res, err := plan.RunContext(ctx)
		st.BaseSQL = time.Since(t0)
		st.BaseSQLText = q.SQL
		if res != nil {
			st.BaseRows, st.FinalRows = len(res.Rows), len(res.Rows)
			st.SkippedSources = res.SkippedSources
			st.addParallelFallback("base-sql", res.ParallelFallback)
		}
		return res, st, err
	}

	if len(whereEnr) > 0 && (q.Select.Distinct || len(q.Select.GroupBy) > 0 || q.Select.Having != nil) {
		return nil, st, fmt.Errorf("core: WHERE enrichment requires a plain SELECT (no DISTINCT/GROUP BY)")
	}

	// --- Build and run the base SQL query on the main platform ---
	base, hidden, err := e.buildBaseQuery(q, whereEnr)
	if err != nil {
		return nil, st, err
	}
	st.BaseSQLText = sqlparser.SelectSQL(base)

	// The base query streams straight into the JoinManager's workset: no
	// intermediate Result, rows land once in a workset-owned arena. The
	// rendered base SQL keys the plan cache (the rewrite is deterministic
	// per SESQL text, so repeats hit).
	t0 = time.Now()
	plan, err := e.planSQL(st.BaseSQLText, base)
	if err != nil {
		st.BaseSQL = time.Since(t0)
		return nil, st, fmt.Errorf("core: base query: %w", err)
	}
	work := &workset{headers: plan.Columns()}
	arena := sqlval.NewRowArena(len(work.headers))
	info, err := plan.StreamInfoContext(ctx, func(row []sqlval.Value) bool {
		work.rows = append(work.rows, arena.Copy(row))
		return true
	})
	st.BaseSQL = time.Since(t0)
	if err != nil {
		return nil, st, fmt.Errorf("core: base query: %w", err)
	}
	st.SkippedSources = info.SkippedSources
	st.addParallelFallback("base-sql", info.ParallelFallback)
	st.BaseRows = len(work.rows)
	visible := len(work.headers) - len(hidden.alias)

	// --- WHERE enrichments (JoinManager filtering) ---
	for i, en := range whereEnr {
		if err := e.applyWhereEnrichment(en, hidden.where[i], work, view, user, st); err != nil {
			return nil, st, err
		}
	}

	// --- Schema enrichments ---
	for _, en := range schemaEnr {
		if err := e.applySchemaEnrichment(q, en, work, view, user, visible, st); err != nil {
			return nil, st, err
		}
		visible = len(work.headers) - len(hidden.alias) // new columns are visible
	}

	// --- Final step (Fig. 6): the ORDER BY / LIMIT / OFFSET a WHERE
	// enrichment deferred, answered from the JoinManager's buffer ---
	rows := work.rows
	if len(whereEnr) > 0 && (len(q.Select.OrderBy) > 0 || q.Select.Limit != nil || q.Select.Offset != nil) {
		t0 = time.Now()
		st.FinalSQLText = finalStepSQL(q.Select)
		rows, err = sortBuffer(q.Select, hidden, work, visible)
		st.FinalSQL = time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("core: final step: %w", err)
		}
	}

	// Project away the hidden columns.
	t0 = time.Now()
	res := &sqlexec.Result{Columns: append([]string(nil), work.headers[:visible]...), SkippedSources: st.SkippedSources}
	if visible == len(work.headers) {
		res.Rows = rows
	} else {
		res.Rows = make([][]sqlval.Value, len(rows))
		for i, r := range rows {
			res.Rows[i] = r[:visible]
		}
	}
	st.Join += time.Since(t0)
	st.FinalRows = len(res.Rows)
	return res, st, nil
}

// sortBuffer orders and limits the buffered rows as the query's ORDER BY,
// LIMIT and OFFSET ask. Like sqlexec.CompileOpts, each key resolves first
// against the visible output headers, which are final once the schema
// enrichments have run; the hidden column the base query projected for
// the key serves where that fails.
func sortBuffer(sel *sqlparser.Select, hidden *hiddenCols, work *workset, visible int) ([][]sqlval.Value, error) {
	out := scope(work.headers[:visible])
	keys := make([]sqlexec.SortKey, len(sel.OrderBy))
	for i, ob := range sel.OrderBy {
		keys[i] = sqlexec.SortKey{Slot: -1, Desc: ob.Desc}
		x, err := sqlexec.CompileExpr(out, ob.Expr)
		if err == nil {
			keys[i].Expr = x
		}
		if alias := hidden.orderBy[i]; alias != "" {
			keys[i].Slot = work.colIndex(alias)
		}
		if keys[i].Expr == nil && keys[i].Slot < 0 {
			return nil, fmt.Errorf("ORDER BY: %w", err)
		}
	}
	return sqlexec.SortRows(work.rows, keys, sel.Limit, sel.Offset)
}

// finalStepSQL renders the deferred final step for Stats.FinalSQLText,
// e.g. "ORDER BY landfill_name DESC LIMIT 2".
func finalStepSQL(sel *sqlparser.Select) string {
	tail := &sqlparser.Select{OrderBy: sel.OrderBy, Limit: sel.Limit, Offset: sel.Offset}
	return strings.TrimSpace(strings.TrimPrefix(sqlparser.SelectSQL(tail), "SELECT"))
}

// scope lays out headers as a column scope for compiling expressions
// over buffered rows.
func scope(headers []string) []sqlexec.ScopeCol {
	cols := make([]sqlexec.ScopeCol, len(headers))
	for i, h := range headers {
		cols[i] = sqlexec.ScopeCol{Name: h}
	}
	return cols
}

// workset is the JoinManager's in-flight partial result.
type workset struct {
	headers []string
	rows    [][]sqlval.Value
}

func (w *workset) colIndex(name string) int {
	for i, h := range w.headers {
		if h == name {
			return i
		}
	}
	return -1
}

// hiddenCols tracks the extra projections added to the base query: the
// columns tagged WHERE conditions read, so those conditions can be
// re-evaluated over buffered rows, and the deferred ORDER BY keys the
// output headers may not supply.
type hiddenCols struct {
	alias map[string]string // expression SQL → hidden column alias
	where []whereCond       // per WHERE enrichment, in order
	// orderBy holds, per deferred ORDER BY key, the alias of the hidden
	// column carrying its value; "" when the key can only resolve
	// against the output headers.
	orderBy []string
}

// whereCond is a WHERE enrichment's tagged condition as the JoinManager
// re-evaluates it over buffered rows.
type whereCond struct {
	cond  sqlparser.Expr // reads the hidden columns and the pseudo-column __v
	reads []string       // the hidden aliases cond reads
	attr  string         // ReplaceVariable: the attribute's hidden alias
}

// project appends ex to sel as a hidden column, unless an equal
// expression already is one, and returns its alias.
func (h *hiddenCols) project(sel *sqlparser.Select, ex sqlparser.Expr) string {
	key := ex.SQL()
	if alias, ok := h.alias[key]; ok {
		return alias
	}
	alias := fmt.Sprintf("__h%d", len(h.alias)+1)
	h.alias[key] = alias
	sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: ex, Alias: alias})
	return alias
}

// buildBaseQuery clones the parsed SELECT, neutralises tagged conditions
// targeted by WHERE enrichments (they become TRUE — the enrichment applies
// them later against the ontology), and appends hidden projections for the
// columns those conditions reference. With a WHERE enrichment, ORDER BY,
// LIMIT and OFFSET must wait until the enrichment has filtered, so they
// leave the base query, and each ORDER BY key the base query can evaluate
// but the output may not name becomes a hidden projection too.
func (e *Enricher) buildBaseQuery(q *sesql.Query, whereEnr []sesql.Enrichment) (*sqlparser.Select, *hiddenCols, error) {
	sel := *q.Select // shallow copy; Items/Where replaced below
	sel.Items = append([]sqlparser.SelectItem(nil), q.Select.Items...)

	hidden := &hiddenCols{alias: map[string]string{}}
	trueLit := &sqlparser.Literal{Val: sqlval.NewBool(true)}
	pseudo := &sqlparser.ColRef{Name: "__v"}
	for _, en := range whereEnr {
		tag := q.Conds[en.CondID]
		where, n := sesql.ReplaceSubtree(sel.Where, tag.Expr, trueLit)
		if n == 0 {
			return nil, nil, fmt.Errorf("core: condition %s not found in WHERE", en.CondID)
		}
		sel.Where = where

		// The constant (ReplaceConstant: a non-relational name such as
		// HazardousWaste, never a projection) or the attribute
		// (ReplaceVariable) becomes the pseudo-column __v; every other
		// column is read from a hidden projection.
		cond, n := sesql.ReplaceSubtree(tag.Expr, parseAttrRef(en.Attr), pseudo)
		if n == 0 {
			return nil, nil, fmt.Errorf("core: %s does not appear in condition %s", en.Attr, en.CondID)
		}
		var wc whereCond
		var refs []*sqlparser.ColRef
		sesql.WalkExpr(cond, func(x sqlparser.Expr) {
			if cr, ok := x.(*sqlparser.ColRef); ok {
				refs = append(refs, cr)
			}
		})
		if en.Kind == sesql.ReplaceVariable {
			refs = append(refs, parseAttrRef(en.Attr))
		}
		for _, cr := range refs {
			if cr == pseudo {
				continue
			}
			alias := hidden.project(&sel, cr)
			cond, _ = sesql.ReplaceSubtree(cond, cr, &sqlparser.ColRef{Name: alias})
			if !slices.Contains(wc.reads, alias) {
				wc.reads = append(wc.reads, alias)
			}
		}
		wc.cond = cond
		if en.Kind == sesql.ReplaceVariable {
			wc.attr = hidden.alias[parseAttrRef(en.Attr).SQL()]
		}
		hidden.where = append(hidden.where, wc)
	}

	if len(whereEnr) > 0 {
		sel.OrderBy, sel.Limit, sel.Offset = nil, nil, nil
		for _, ob := range q.Select.OrderBy {
			alias := ""
			if !namesOneOutput(q, ob.Expr) && sqlexec.ResolvesInFrom(e.DB.Catalog(), q.Select, ob.Expr) {
				alias = hidden.project(&sel, ob.Expr)
			}
			hidden.orderBy = append(hidden.orderBy, alias)
		}
	}
	return &sel, hidden, nil
}

// namesOneOutput reports whether an ORDER BY key is an unqualified name
// that exactly one SELECT item's header carries (its alias, column name or
// rendered expression, as sqlexec names headers). The final headers then
// still carry it, and the key needs no hidden column. A star, or a schema
// replacement that renames a header, defeats the check.
func namesOneOutput(q *sesql.Query, key sqlparser.Expr) bool {
	cr, ok := key.(*sqlparser.ColRef)
	if !ok || cr.Qualifier != "" {
		return false
	}
	for _, en := range q.Enrichments {
		if en.Kind == sesql.SchemaReplacement || en.Kind == sesql.BoolSchemaReplacement {
			return false
		}
	}
	n := 0
	for _, it := range q.Select.Items {
		if it.Star {
			return false
		}
		name := it.Alias
		if name == "" {
			name = it.Expr.SQL()
			if c, ok := it.Expr.(*sqlparser.ColRef); ok {
				name = c.Name
			}
		}
		if strings.EqualFold(name, cr.Name) {
			n++
		}
	}
	return n == 1
}

// parseAttrRef parses an enrichment attr argument ("elem_name" or
// "Elecond2.elem_name") into a column reference.
func parseAttrRef(attr string) *sqlparser.ColRef {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return &sqlparser.ColRef{Qualifier: attr[:i], Name: attr[i+1:]}
	}
	return &sqlparser.ColRef{Name: attr}
}

// --- WHERE enrichments ---

// applyWhereEnrichment re-evaluates the tagged condition over every base
// row with the constant (ReplaceConstant) or the attribute's value
// (ReplaceVariable) replaced by the values the ontology yields; a row
// survives when some replacement satisfies the condition (the paper's
// "treat the list as if it was a relational attribute").
func (e *Enricher) applyWhereEnrichment(en sesql.Enrichment, wc whereCond, work *workset, view rdf.IDGraph, user string, st *Stats) error {
	scopeCols := scope(append(slices.Clip(work.headers), "__v"))
	// The condition reads only these columns and __v, and REPLACEVARIABLE's
	// candidates only its attribute, which is among them.
	keySlots := make([]int, len(wc.reads))
	for i, alias := range wc.reads {
		keySlots[i] = work.colIndex(alias)
	}

	if en.Kind == sesql.ReplaceVariable {
		pairs, err := e.propertyPairs(en, user, view, st)
		if err != nil {
			return err
		}
		attrIdx := work.colIndex(wc.attr)
		return existsFilter(work, scopeCols, wc.cond, keySlots, func(row []sqlval.Value) []sqlval.Value {
			return pairs[valueKey(row[attrIdx])]
		}, st)
	}
	values, err := e.replacementValues(en, user, view, st)
	if err != nil {
		return err
	}
	return existsFilter(work, scopeCols, wc.cond, keySlots, func([]sqlval.Value) []sqlval.Value { return values }, st)
}

// existsFilter keeps, in order, the rows for which some candidate value
// makes the rewritten condition TRUE. The condition compiles once to a
// slot-resolved predicate. It reads only the columns at keySlots plus the
// candidate, candidates reads only those columns, and every scalar
// function is deterministic, so the outcome is memoised per distinct
// tuple of their values: one predicate run per distinct tuple and
// candidate, one map probe per later row. Tuples are keyed on exact
// identity (sqlval.AppendIdentityKey), so values that compare equal but
// render differently, like -0.0 and 0.0, never share an outcome.
func existsFilter(work *workset, scopeCols []sqlexec.ScopeCol, cond sqlparser.Expr, keySlots []int,
	candidates func(row []sqlval.Value) []sqlval.Value, st *Stats) error {
	t0 := time.Now()
	defer func() { st.Join += time.Since(t0) }()

	pred, err := sqlexec.CompileExpr(scopeCols, cond)
	if err != nil {
		return fmt.Errorf("core: WHERE enrichment condition: %w", err)
	}
	scratch := make([]sqlval.Value, len(work.headers)+1)
	memo := make(map[string]bool)
	var key []byte
	kept := work.rows[:0]
	for _, row := range work.rows {
		key = key[:0]
		for _, s := range keySlots {
			key = sqlval.AppendIdentityKey(key, row[s])
		}
		ok, seen := memo[string(key)]
		if !seen {
			copy(scratch, row)
			for _, v := range candidates(row) {
				scratch[len(work.headers)] = v
				// An evaluation error (a type mismatch against a
				// heterogeneous ontology value) counts as UNKNOWN for this
				// candidate rather than aborting the query.
				if tri, err := pred.EvalBool(scratch); err == nil && tri == sqlval.True {
					ok = true
					break
				}
			}
			memo[string(key)] = ok
		}
		if ok {
			kept = append(kept, row)
		}
	}
	work.rows = kept
	return nil
}

// --- schema enrichments ---

func (e *Enricher) applySchemaEnrichment(q *sesql.Query, en sesql.Enrichment, work *workset, view rdf.IDGraph, user string, visible int, st *Stats) error {
	attrIdx, err := resolveAttr(q.Select, work.headers[:visible], en.Attr)
	if err != nil {
		return err
	}
	// The ontology side of the join: what the column's values map to.
	table := attrTable(q.Select, en.Attr)
	column := parseAttrRef(en.Attr).Name

	// newValues gives the values a column value joins with: the property's
	// objects (one output row each; NULL when there are none), or whether
	// it is a member of the concept.
	var newValues func(key string) []sqlval.Value
	switch en.Kind {
	case sesql.SchemaExtension, sesql.SchemaReplacement:
		pairs, err := e.propertyPairs(en, user, view, st)
		if err != nil {
			return err
		}
		null := []sqlval.Value{sqlval.Null}
		newValues = func(key string) []sqlval.Value {
			if objs := pairs[key]; len(objs) > 0 {
				return objs
			}
			return null
		}
	case sesql.BoolSchemaExtension, sesql.BoolSchemaReplacement:
		members, err := e.conceptMembers(en, user, view, st)
		if err != nil {
			return err
		}
		isMember := [2][]sqlval.Value{{sqlval.NewBool(false)}, {sqlval.NewBool(true)}}
		newValues = func(key string) []sqlval.Value {
			if _, ok := members[key]; ok {
				return isMember[1]
			}
			return isMember[0]
		}
	default:
		return fmt.Errorf("core: unexpected schema enrichment %v", en.Kind)
	}

	t0 := time.Now()
	newCol := uniqueName(shortName(en.Property), work.headers)
	replace := en.Kind == sesql.SchemaReplacement || en.Kind == sesql.BoolSchemaReplacement
	rows := make([][]sqlval.Value, 0, len(work.rows))
	arena := extendArena(work.rows, replace)
	// Column values repeat across rows; memoise the value→term→key
	// mapping so the per-row cost is one map probe instead of an IRI
	// string build. The memo keys on exact identity
	// (sqlval.AppendIdentityKey): -0.0 and 0.0 render, and so map, to
	// different terms, and NaN must find its own entry.
	memo := make(map[string][]sqlval.Value)
	var key []byte
	for _, row := range work.rows {
		key = sqlval.AppendIdentityKey(key[:0], row[attrIdx])
		vals, ok := memo[string(key)]
		if !ok {
			vals = newValues(valueKeyMapped(e.Mapping, table, column, row[attrIdx]))
			memo[string(key)] = vals
		}
		for _, v := range vals {
			rows = append(rows, extendRow(arena, row, attrIdx, v, replace, visible))
		}
	}
	work.rows = rows
	if replace {
		work.headers[attrIdx] = newCol
	} else {
		work.headers = insertHeader(work.headers, visible, newCol)
	}
	st.Join += time.Since(t0)
	return nil
}

// extendArena returns a row arena sized for the enrichment's output rows
// (same width on replacement, one wider on extension).
func extendArena(rows [][]sqlval.Value, replace bool) *sqlval.RowArena {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
		if !replace {
			w++
		}
	}
	return sqlval.NewRowArena(w)
}

// extendRow either replaces column attrIdx with v or inserts v as a new
// column just before position visible (i.e. after the visible columns,
// before any hidden ones). Output rows come from the arena, so the
// per-input-row join loop does not allocate.
func extendRow(a *sqlval.RowArena, row []sqlval.Value, attrIdx int, v sqlval.Value, replace bool, visible int) []sqlval.Value {
	if replace {
		out := a.Copy(row)
		out[attrIdx] = v
		return out
	}
	out := a.Next()
	copy(out, row[:visible])
	out[visible] = v
	copy(out[visible+1:], row[visible:])
	return out
}

func insertHeader(headers []string, visible int, name string) []string {
	out := make([]string, 0, len(headers)+1)
	out = append(out, headers[:visible]...)
	out = append(out, name)
	out = append(out, headers[visible:]...)
	return out
}

// --- ontology access (the SQM's constructed SPARQL queries) ---

// propertyPairs returns subject→objects for the enrichment property, via a
// constructed SPARQL query or a stored one (Sec. IV-A.5: "prop refers to
// either a property from the contextual ontology, or the identifier of a
// previously stored SPARQL query").
func (e *Enricher) propertyPairs(en sesql.Enrichment, user string, view rdf.IDGraph, st *Stats) (map[string][]sqlval.Value, error) {
	text := ""
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(user, en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q must project (subject, object) for %s", en.Property, en.Kind)
	} else {
		prop := e.Mapping.PropertyIRI(en.Property)
		text = fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%s> ?o }", prop.Value)
	}
	pairs := map[string][]sqlval.Value{}
	err := e.streamSPARQL(view, text, st, 2, minVarsErr, func(sol sparql.Solution) bool {
		s, okS := sol.Term(0)
		o, okO := sol.Term(1)
		if !okS || !okO {
			return true
		}
		key := valueKey(e.Mapping.FromTerm(s))
		pairs[key] = append(pairs[key], e.Mapping.FromTerm(o))
		return true
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// conceptMembers returns the set of values related to the concept through
// the property (for the boolean enrichments).
func (e *Enricher) conceptMembers(en sesql.Enrichment, user string, view rdf.IDGraph, st *Stats) (map[string]struct{}, error) {
	prop := e.Mapping.PropertyIRI(en.Property)
	concepts := e.Mapping.ConceptTerms(en.Concept)
	var parts []string
	for _, c := range concepts {
		parts = append(parts, fmt.Sprintf("{ ?s <%s> %s }", prop.Value, c.String()))
	}
	text := "SELECT DISTINCT ?s WHERE { " + strings.Join(parts, " UNION ") + " }"
	members := map[string]struct{}{}
	err := e.streamSPARQL(view, text, st, 1, "", func(sol sparql.Solution) bool {
		if s, ok := sol.Term(0); ok {
			members[valueKey(e.Mapping.FromTerm(s))] = struct{}{}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return members, nil
}

// replacementValues returns the candidate values for a ReplaceConstant
// enrichment: the results of a stored query, or the objects of triples
// whose subject is the constant.
func (e *Enricher) replacementValues(en sesql.Enrichment, user string, view rdf.IDGraph, st *Stats) ([]sqlval.Value, error) {
	text := ""
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(user, en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q projects no variables", en.Property)
	} else {
		prop := e.Mapping.PropertyIRI(en.Property)
		var parts []string
		for _, c := range e.Mapping.ConceptTerms(en.Attr) {
			parts = append(parts, fmt.Sprintf("{ %s <%s> ?o }", c.String(), prop.Value))
		}
		text = "SELECT ?o WHERE { " + strings.Join(parts, " UNION ") + " }"
	}
	var out []sqlval.Value
	err := e.streamSPARQL(view, text, st, 1, minVarsErr, func(sol sparql.Solution) bool {
		if t, ok := sol.Term(0); ok {
			out = append(out, e.Mapping.FromTerm(t))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// streamSPARQL compiles (through the plan cache) and streams a SPARQL query
// over the user's KB view: solutions reach fn as ID rows decoded on access,
// with no per-solution Binding map materialised. minVars guards stored
// queries that must project a minimum number of variables; minVarsErr is
// the error reported when they don't.
func (e *Enricher) streamSPARQL(view rdf.IDGraph, text string, st *Stats, minVars int, minVarsErr string, fn func(sparql.Solution) bool) error {
	st.SPARQLQueries = append(st.SPARQLQueries, text)
	t0 := time.Now()
	defer func() { st.SPARQL += time.Since(t0) }()
	p, err := e.PlanSPARQL(text)
	if err != nil {
		return fmt.Errorf("core: SPARQL: %w", err)
	}
	if p.NumVars() < minVars {
		return fmt.Errorf("core: %s", minVarsErr)
	}
	info, err := p.StreamInfoOpts(view, e.opts.SPARQL(), fn)
	if err != nil {
		return fmt.Errorf("core: SPARQL: %w", err)
	}
	st.addParallelFallback("sparql", info.ParallelFallback)
	return nil
}

// --- helpers ---

// valueKey encodes a SQL value for hash joining ontology results with
// relational values (numeric types fold together). It runs once per base
// row per enrichment, so it builds the key directly instead of going
// through fmt.
func valueKey(v sqlval.Value) string {
	t := v.Type()
	if t == sqlval.TypeFloat {
		t = sqlval.TypeInt
	}
	s := v.String()
	var b strings.Builder
	b.Grow(len(s) + 4)
	b.WriteString(strconv.Itoa(int(t)))
	b.WriteByte('|')
	b.WriteString(s)
	return b.String()
}

// valueKeyMapped routes the relational value through the resource mapping
// and back, so a column mapped to IRIs joins with IRI-derived values.
func valueKeyMapped(m *Mapping, table, column string, v sqlval.Value) string {
	if v.IsNull() {
		return "null"
	}
	return valueKey(m.FromTerm(m.ToTerm(table, column, v)))
}

// resolveAttr finds the result column an enrichment attr argument denotes:
// an alias, a projected column name, or a qualified column whose projection
// matches.
func resolveAttr(sel *sqlparser.Select, headers []string, attr string) (int, error) {
	ref := parseAttrRef(attr)
	var matches []int
	hasStar := false
	for _, it := range sel.Items {
		if it.Star {
			hasStar = true
		}
	}
	// Item positions align with header positions only when no star was
	// expanded; otherwise match on headers alone below.
	if !hasStar {
		for i, it := range sel.Items {
			if i >= len(headers) {
				break
			}
			if it.Alias != "" && strings.EqualFold(it.Alias, attr) {
				matches = append(matches, i)
				continue
			}
			if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
				if !strings.EqualFold(cr.Name, ref.Name) {
					continue
				}
				if ref.Qualifier != "" && !strings.EqualFold(cr.Qualifier, ref.Qualifier) {
					continue
				}
				matches = append(matches, i)
			}
		}
	}
	// Stars were expanded at execution time; fall back to header names.
	if len(matches) == 0 {
		for i, h := range headers {
			if strings.EqualFold(h, ref.Name) {
				matches = append(matches, i)
			}
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return 0, fmt.Errorf("core: enrichment attribute %q is not in the SELECT clause", attr)
	default:
		return 0, fmt.Errorf("core: enrichment attribute %q is ambiguous", attr)
	}
}

// attrTable resolves which FROM table an attr qualifier denotes, for the
// resource mapping ("Elecond2" → elem_contained).
func attrTable(sel *sqlparser.Select, attr string) string {
	ref := parseAttrRef(attr)
	if ref.Qualifier == "" {
		if len(sel.From) == 1 && len(sel.From[0].Joins) == 0 {
			return sel.From[0].Table
		}
		return ""
	}
	for _, tr := range sel.From {
		if strings.EqualFold(tr.Alias, ref.Qualifier) || strings.EqualFold(tr.Table, ref.Qualifier) {
			return tr.Table
		}
		for _, j := range tr.Joins {
			if strings.EqualFold(j.Alias, ref.Qualifier) || strings.EqualFold(j.Table, ref.Qualifier) {
				return j.Table
			}
		}
	}
	return ""
}

func shortName(prop string) string {
	if i := strings.LastIndexAny(prop, "#/"); i >= 0 && i+1 < len(prop) {
		return prop[i+1:]
	}
	return prop
}

func uniqueName(base string, taken []string) string {
	name := base
	for n := 2; ; n++ {
		clash := false
		for _, t := range taken {
			if strings.EqualFold(t, name) {
				clash = true
				break
			}
		}
		if !clash {
			return name
		}
		name = fmt.Sprintf("%s_%d", base, n)
	}
}
