package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// client is one caller with its own connection to the server.
type client struct {
	http *http.Client
	tr   *http.Transport
	base string
	body bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// encode renders a request as the REST call a user would make.
func encode(r request) (path string, body []byte) {
	var v any
	switch r.kind {
	case readSESQL:
		path, v = "/api/v1/query", map[string]string{"user": r.user, "sesql": r.text}
	case readSPARQL:
		path, v = "/api/v1/sparql", map[string]string{"user": r.user, "query": r.text}
	case writeStmt:
		path, v = "/api/v1/statements", map[string]any{
			"user": r.user, "subject": r.subject, "property": "dangerLevel",
			"object": r.object, "object_literal": true,
		}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return path, body
}

// ack is an acknowledged insert, kept for the durability check.
type ack struct {
	id string
	r  request
}

// post sends r and reads the whole answer into c.body. It returns the
// statement id of an acknowledged insert.
func (c *client) post(r request) (string, error) {
	path, body := encode(r)
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	want := http.StatusOK
	if r.kind == writeStmt {
		want = http.StatusCreated
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("%s %s: status %d: %.200s", r.shape, path, resp.StatusCode, c.body.Bytes())
	}
	if r.kind != writeStmt {
		return "", nil
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("insert: bad acknowledgement %.200q", c.body.Bytes())
	}
	return out.ID, nil
}

// sample is one successful timed request: when it completed, in seconds
// after its phase's timed start, and how long it took, in ms.
type sample struct{ at, ms float64 }

// loadStats is what one closed-loop phase measured.
type loadStats struct {
	span          float64  // timed seconds
	before, after counters // the program's counters at the timed start and end
	reads, writes []sample // successful timed requests
	byShape       map[string][]float64
	attempted     int
	failed        int
	acks          []ack
	errs          []string // the first few failures
}

// goodput is the phase's successful requests per second, as the median
// over time slices (see windowedGoodput).
func (l *loadStats) goodput() float64 {
	return windowedGoodput(append(append([]sample(nil), l.reads...), l.writes...), l.span)
}

// merge adds another client's requests in the same phase to l.
func (l *loadStats) merge(o *loadStats) {
	for k, v := range o.byShape {
		if l.byShape == nil {
			l.byShape = map[string][]float64{}
		}
		l.byShape[k] = append(l.byShape[k], v...)
	}
	l.reads = append(l.reads, o.reads...)
	l.writes = append(l.writes, o.writes...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.acks = append(l.acks, o.acks...)
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
}

// record counts one timed request that took lat and completed at after
// the timed start.
func (l *loadStats) record(r request, lat, at time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	smp := sample{at: at.Seconds(), ms: ms(lat)}
	if r.kind == writeStmt {
		l.writes = append(l.writes, smp)
	} else {
		l.reads = append(l.reads, smp)
	}
	if l.byShape == nil {
		l.byShape = map[string][]float64{}
	}
	l.byShape[r.shape] = append(l.byShape[r.shape], smp.ms)
}

// executor runs one request for one client and returns the statement id
// of an acknowledged insert.
type executor func(r request) (string, error)

// drive runs one closed-loop phase: runtime.NumCPU() clients, each with
// its own connection, request stream (streams+i) and executor, sending
// the workload's traffic, or only inserts when writes is set. Requests
// sent during the first warm are not timed; clients stop sending warm+dur
// after the start. Every acknowledged insert, warm-up included, is
// returned for the durability check.
func drive(sys *system, seed int64, streams int, warm, dur time.Duration, writes bool, newExec func(c *client) executor) *loadStats {
	start := time.Now()
	timed := start.Add(warm)
	deadline := timed.Add(dur)

	nClients := runtime.NumCPU()
	parts := make([]loadStats, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		g := newGenerator(sys.wl, seed, streams+i)
		next := g.next
		if writes {
			next = g.write
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(sys.url)
			defer c.close()
			exec := newExec(c)
			st := &parts[i]
			for time.Now().Before(deadline) {
				r := next()
				t0 := time.Now()
				id, err := exec(r)
				t1 := time.Now()
				if err == nil && id != "" {
					st.acks = append(st.acks, ack{id: id, r: r})
				}
				if !t0.Before(timed) {
					st.record(r, t1.Sub(t0), t1.Sub(timed), err)
				}
			}
		}(i)
	}
	time.Sleep(time.Until(timed))
	before := snapshot(sys)
	time.Sleep(time.Until(deadline))
	after := snapshot(sys)
	wg.Wait()

	out := &loadStats{span: dur.Seconds(), before: before, after: after}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// Request streams: client i of a phase draws stream base+i. Each phase
// draws its own sample, so the traced phase's texts are not in the served
// system's result cache.
const (
	writeStreams = 1 << 20
	traceStreams = 1 << 21
	checkStream  = 1 << 22
)

// A read-only workload's write phase: untimed warm-up, then timed inserts.
const (
	writeWarm  = 200 * time.Millisecond
	writePhase = 5 * time.Second
)

// phases is one run of a workload's traffic: the timed phase, and the
// phase whose inserts give the write figures — the write phase, or the
// timed phase itself when it carries inserts.
type phases struct{ timed, writes *loadStats }

// runPhases drives the timed phase, preceded for a read-only workload by
// its write phase, which then runs on the freshly set-up heap.
func runPhases(sys *system, seed int64, streams int, dur time.Duration, newExec func(c *client) executor) phases {
	var p phases
	if sys.wl.writeOneIn == 0 {
		p.writes = drive(sys, seed, streams+writeStreams, writeWarm, writePhase, true, newExec)
	}
	p.timed = drive(sys, seed, streams, warmUp, dur, false, newExec)
	if p.writes == nil {
		p.writes = p.timed
	}
	return p
}

// total merges the phases' requests, for the result line and the checks.
func (p phases) total() *loadStats {
	t := &loadStats{}
	t.merge(p.timed)
	if p.writes != p.timed {
		t.merge(p.writes)
	}
	return t
}

func untraced(c *client) executor { return c.post }
