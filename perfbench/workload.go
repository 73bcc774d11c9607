package main

import (
	"fmt"
	"math/rand"

	"crosse/internal/core"
	"crosse/internal/dataset"
)

// reqKind is what one generated request does.
type reqKind int

const (
	readSESQL  reqKind = iota // POST /api/v1/query
	readSPARQL                // POST /api/v1/sparql
	writeStmt                 // POST /api/v1/statements
)

// remoteScan names the foreign-table access a request over a remote_
// table makes, so the traced run can time the fdw layer on its own.
type remoteScan struct {
	table string // remote (un-prefixed) table name
	col   string // pushed-down equality column; empty for a full scan
	value string
}

// request is one generated client request. The program receives only the
// text (or the statement fields); shape names the template for reporting.
type request struct {
	kind   reqKind
	shape  string
	user   string
	text   string
	remote *remoteScan

	// Statement fields: a dangerLevel belief about subject.
	subject string
	object  string
}

// workload is one traffic mix over one system configuration.
type workload struct {
	name string
	why  string

	landfills    int // databank size
	users        int
	extraTriples int  // padding triples per user KB
	fdwLandfills int  // size of the attached FDW data node; 0 = none
	cacheEntries int  // result-cache entry bound; 0 disables the cache
	checkReads   int  // reads replayed against the serial oracle
	checkHits    bool // also compare one cache hit per sampled read

	// writeOneIn makes one request in N a statement insert. A workload
	// without it is read-only and measures inserts in a write phase of its
	// own after the timed phase.
	writeOneIn int

	// read draws the next read request.
	read func(g *generator) request
	// knownFailing lists valid queries that fail today; the answer check
	// sends them and requires the server to agree with the serial oracle.
	knownFailing []string
}

const (
	cacheBytes = 64 << 20 // crosse-server's -cache-bytes default
	padUsers   = 2
)

var workloads = []*workload{
	{
		name:         "hot-read-write",
		why:          "a dozen fixed small SESQL texts, Zipf-skewed, one request in 16 an insert: HTTP, JSON, result cache and journal",
		landfills:    200,
		users:        8,
		cacheEntries: 4096,
		checkReads:   96,
		checkHits:    true,
		writeOneIn:   16,
		read:         hotRead,
	},
	{
		name:         "enrich-scan",
		why:          "seeded enrichment and SQL templates over 2000 landfills and an FDW node: JoinManager, executors and fdw",
		landfills:    2000,
		users:        8,
		fdwLandfills: 500,
		cacheEntries: 4096,
		checkReads:   32,
		read:         scanRead,
		knownFailing: []string{
			`SELECT e.landfill_name, e.amount FROM elem_contained e WHERE ${e.elem_name = HazardousWaste:c1} ORDER BY e.landfill_name LIMIT 20 ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			`SELECT landfill_name, amount FROM elem_contained WHERE ${elem_name = HazardousWaste:c1} ORDER BY elem_name LIMIT 20 ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
		},
	},
	{
		name:         "big-kb",
		why:          "two users with 50k padding triples each, result cache off: SPARQL over a KB far larger than the query touches",
		landfills:    200,
		users:        padUsers,
		extraTriples: 50000,
		checkReads:   32,
		read:         bigKBRead,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generator draws one client's request sequence. It depends only on the
// seed and the stream number, so one seed gives one sequence.
type generator struct {
	wl    *workload
	rng   *rand.Rand
	users *rand.Zipf
	texts *rand.Zipf
	deck  []int // templates still to deal this round (see deal)
}

func newGenerator(wl *workload, seed int64, stream int) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &generator{
		wl:    wl,
		rng:   rng,
		users: rand.NewZipf(rng, 1.2, 1, uint64(wl.users-1)),
		texts: rand.NewZipf(rng, 1.1, 1, uint64(len(hotTexts)-1)),
	}
}

func (g *generator) user() string { return userName(int(g.users.Uint64())) }

func userName(i int) string { return fmt.Sprintf("u%d", i) }

// next draws a closed-loop client's next request.
func (g *generator) next() request {
	if g.wl.writeOneIn > 0 && g.rng.Intn(g.wl.writeOneIn) == 0 {
		return g.write()
	}
	return g.wl.read(g)
}

// write draws a statement insert: a new dangerLevel belief of a Zipf-drawn
// user. Subjects come from a pool of 64 names no databank row carries, so
// each insert is a new statement and bumps the user's view epoch while the
// KB and every answer stay the same size however long the run.
func (g *generator) write() request {
	obj := "low"
	if g.rng.Intn(2) == 0 {
		obj = "high"
	}
	return request{
		kind:    writeStmt,
		shape:   "insert",
		user:    g.user(),
		subject: fmt.Sprintf("fresh_element_%02d", g.rng.Intn(64)),
		object:  obj,
	}
}

// hotTexts are hot-read-write's fixed texts: the six enrichment kinds and
// plain SQL, each with a small result.
var hotTexts = []string{
	`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'landfill_0003' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
	`SELECT name, city, area FROM landfill WHERE name = 'landfill_0100'`,
	`SELECT name, city FROM landfill WHERE name = 'landfill_0010' ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
	`SELECT landfill_name FROM elem_contained WHERE landfill_name = 'landfill_0001' AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
	`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'landfill_0007' ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
	`SELECT COUNT(*) FROM elem_contained WHERE landfill_name = 'landfill_0020'`,
	`SELECT name, city FROM landfill WHERE city = 'city_005' ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, country_05)`,
	`SELECT landfill_name FROM elem_contained WHERE landfill_name = 'landfill_0030' AND ${elem_name = 'element_002':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)`,
	`SELECT elem_name, landfill_name, amount FROM elem_contained WHERE landfill_name = 'landfill_0042' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
	`SELECT lab_name, COUNT(*) FROM analysis WHERE landfill_name = 'landfill_0050' GROUP BY lab_name`,
	`SELECT name, city FROM landfill WHERE name = 'landfill_0150' ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
	`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'landfill_0077' ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
}

func hotRead(g *generator) request {
	i := int(g.texts.Uint64())
	return request{kind: readSESQL, shape: fmt.Sprintf("hot%02d", i), user: g.user(), text: hotTexts[i]}
}

// shape is one request template: its kind, its share of a workload's
// reads, and a function that fills its constants from the generator.
type shape struct {
	name   string
	kind   reqKind
	weight int
	make   func(g *generator) (string, *remoteScan)
}

func sesqlShape(name string, weight int, text func(g *generator) string) shape {
	return shape{name, readSESQL, weight, func(g *generator) (string, *remoteScan) { return text(g), nil }}
}

func sparqlShape(name string, weight int, text func(g *generator) string) shape {
	return shape{name, readSPARQL, weight, func(g *generator) (string, *remoteScan) { return text(g), nil }}
}

// deal draws the next read from shapes. Templates come off a shuffled deck
// holding each one weight times, so every run sends each template its
// exact share and a seed changes only the order and the constants.
func (g *generator) deal(shapes []shape) request {
	if len(g.deck) == 0 {
		for i, s := range shapes {
			for k := 0; k < s.weight; k++ {
				g.deck = append(g.deck, i)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	s := shapes[g.deck[len(g.deck)-1]]
	g.deck = g.deck[:len(g.deck)-1]
	text, remote := s.make(g)
	return request{kind: s.kind, shape: s.name, user: g.user(), text: text, remote: remote}
}

// scanShapes are enrich-scan's reads. The weights put the median inside
// the BOOLSCHEMAEXTENSION range scans, whose latency varies with their
// seeded threshold, rather than on the step between two templates.
var scanShapes = []shape{
	sesqlShape("schemaext-point", 4, func(g *generator) string {
		return fmt.Sprintf(`SELECT elem_name, landfill_name, amount FROM elem_contained WHERE landfill_name = '%s' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
			dataset.LandfillName(g.rng.Intn(2000)))
	}),
	sesqlShape("schemarepl-city", 3, func(g *generator) string {
		return fmt.Sprintf(`SELECT name, city FROM landfill WHERE city = '%s' ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
			dataset.CityName(g.rng.Intn(40)))
	}),
	sesqlShape("boolext-range", 4, func(g *generator) string {
		return fmt.Sprintf(`SELECT elem_name, landfill_name FROM elem_contained WHERE amount > %.2f ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
			88+g.rng.Float64()*10)
	}),
	sesqlShape("boolrepl-range", 2, func(g *generator) string {
		return fmt.Sprintf(`SELECT name, city FROM landfill WHERE area > %.2f ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, %s)`,
			100+g.rng.Float64()*400, dataset.CountryName(g.rng.Intn(8)))
	}),
	sesqlShape("replconst-full", 2, func(g *generator) string {
		return fmt.Sprintf(`SELECT landfill_name, amount FROM elem_contained WHERE amount >= %.2f AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			g.rng.Float64()*5)
	}),
	sesqlShape("replvar-full", 2, func(g *generator) string {
		return fmt.Sprintf(`SELECT landfill_name FROM elem_contained WHERE amount >= %.2f AND ${elem_name = '%s':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)`,
			g.rng.Float64()*5, dataset.ElementName(g.rng.Intn(20)))
	}),
	sesqlShape("deferred-order", 2, func(g *generator) string {
		key := []string{"amount DESC", "landfill_name, amount", "amount, landfill_name"}[g.rng.Intn(3)]
		return fmt.Sprintf(`SELECT landfill_name, elem_name, amount FROM elem_contained WHERE ${elem_name = HazardousWaste:c1} ORDER BY %s LIMIT %d ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			key, 5+g.rng.Intn(46))
	}),
	sesqlShape("groupby-sum", 3, func(g *generator) string {
		return fmt.Sprintf(`SELECT landfill_name, SUM(amount), AVG(amount) FROM elem_contained WHERE amount > %.2f GROUP BY landfill_name`,
			g.rng.Float64()*10)
	}),
	sesqlShape("join-groupby", 3, func(g *generator) string {
		return fmt.Sprintf(`SELECT l.city, COUNT(*), SUM(e.amount) FROM elem_contained e JOIN landfill l ON e.landfill_name = l.name WHERE e.amount > %.2f GROUP BY l.city`,
			g.rng.Float64()*10)
	}),
	sesqlShape("order-full", 2, func(g *generator) string {
		return fmt.Sprintf(`SELECT elem_name, landfill_name, amount FROM elem_contained WHERE amount > %.2f ORDER BY amount DESC, landfill_name`,
			85+g.rng.Float64()*10)
	}),
	sesqlShape("lab-schemaext", 3, func(g *generator) string {
		return fmt.Sprintf(`SELECT landfill_name, elem_name, purity FROM analysis WHERE lab_name = '%s' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
			dataset.LabName(g.rng.Intn(15)))
	}),
	{"remote-point", readSESQL, 4, func(g *generator) (string, *remoteScan) {
		lf := dataset.LandfillName(g.rng.Intn(500))
		return fmt.Sprintf(`SELECT elem_name, landfill_name FROM remote_elem_contained WHERE landfill_name = '%s' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`, lf),
			&remoteScan{table: "elem_contained", col: "landfill_name", value: lf}
	}},
	{"remote-scan", readSESQL, 2, func(g *generator) (string, *remoteScan) {
		return fmt.Sprintf(`SELECT name, city FROM remote_landfill WHERE area > %.2f ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
				50+g.rng.Float64()*100),
			&remoteScan{table: "landfill"}
	}},
}

func scanRead(g *generator) request { return g.deal(scanShapes) }

const onto = core.DefaultIRIPrefix

// bigKBShapes are big-kb's reads: three enrichments through /api/v1/query
// and four direct SPARQL queries through /api/v1/sparql, one each per
// round, which puts the median inside the BGP join's latencies rather
// than on the step between two templates.
var bigKBShapes = []shape{
	sesqlShape("schemaext", 1, func(g *generator) string {
		return fmt.Sprintf(`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
			dataset.LandfillName(g.rng.Intn(200)))
	}),
	sesqlShape("boolext", 1, func(g *generator) string {
		return fmt.Sprintf(`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
			dataset.LandfillName(g.rng.Intn(200)))
	}),
	sesqlShape("replconst", 1, func(g *generator) string {
		return fmt.Sprintf(`SELECT landfill_name, amount FROM elem_contained WHERE amount >= %.2f AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
			g.rng.Float64()*5)
	}),
	sparqlShape("sparql-point", 1, func(g *generator) string {
		s := g.rng.Intn(50000)
		return fmt.Sprintf(`SELECT ?o WHERE { <%spad_s%d> <%spad_p%d> ?o }`, onto, s, onto, s%97)
	}),
	sparqlShape("sparql-join", 1, func(g *generator) string {
		p := g.rng.Intn(97)
		return fmt.Sprintf(`SELECT ?s ?t WHERE { ?s <%spad_p%d> ?o . ?t <%spad_p%d> ?o }`, onto, p, onto, (p+1+g.rng.Intn(96))%97)
	}),
	sparqlShape("sparql-order", 1, func(g *generator) string {
		return fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <%spad_p%d> ?o } ORDER BY ?o ?s LIMIT %d`, onto, g.rng.Intn(97), 10+g.rng.Intn(91))
	}),
	sparqlShape("sparql-path", 1, func(g *generator) string {
		return fmt.Sprintf(`SELECT ?x ?y WHERE { ?x <%soreAssemblage>+ ?y }`, onto)
	}),
}

func bigKBRead(g *generator) request { return g.deal(bigKBShapes) }
