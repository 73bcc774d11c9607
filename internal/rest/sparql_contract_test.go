package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"crosse/internal/core"
)

// TestV1SPARQLWireContract pins the /api/v1/sparql response body: the
// projected vars, one JSON object per solution with unbound variables
// omitted, encoding/json's HTML-safe escaping of values, an empty result
// as [] rather than null, ASK's bool, the 404-before-400 order of user and
// parse checks, and a cache hit that repeats the miss's answer.
func TestV1SPARQLWireContract(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	post := func(body string) (int, []byte) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/api/v1/sparql", body)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	mustPost := func(path, body string) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d", path, body, resp.StatusCode)
		}
	}
	mustPost("/api/v1/users", `{"name":"alice"}`)
	mustPost("/api/v1/statements", `{"user":"alice","subject":"Mercury","property":"isA","object":"HazardousWaste"}`)
	mustPost("/api/v1/statements", `{"user":"alice","subject":"Lead","property":"isA","object":"HazardousWaste"}`)
	mustPost("/api/v1/statements", `{"user":"alice","subject":"Mercury","property":"note","object":"<a&b>\u2028","object_literal":true}`)

	type body struct {
		Vars     []string            `json:"vars"`
		Bindings []map[string]string `json:"bindings"`
		Bool     bool                `json:"bool"`
		Stats    *struct {
			CacheHit bool `json:"cache_hit"`
		} `json:"stats"`
	}
	decode := func(raw []byte) body {
		t.Helper()
		var b body
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return b
	}
	query := func(q string) string {
		raw, err := json.Marshal(map[string]string{"user": "alice", "query": q})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	pre := `PREFIX s: <` + core.DefaultIRIPrefix + `> `

	// SELECT with an OPTIONAL: Lead has no note, so its object omits "n".
	sel := query(pre + `SELECT ?x ?n WHERE { ?x s:isA s:HazardousWaste . OPTIONAL { ?x s:note ?n } } ORDER BY ?x`)
	code, raw := post(sel)
	if code != http.StatusOK {
		t.Fatalf("select: %d %s", code, raw)
	}
	miss := decode(raw)
	if !reflect.DeepEqual(miss.Vars, []string{"x", "n"}) {
		t.Errorf("vars = %v", miss.Vars)
	}
	want := []map[string]string{
		{"x": core.DefaultIRIPrefix + "Lead"},
		{"x": core.DefaultIRIPrefix + "Mercury", "n": "<a&b>\u2028"},
	}
	if !reflect.DeepEqual(miss.Bindings, want) {
		t.Errorf("bindings = %v, want %v", miss.Bindings, want)
	}
	if !bytes.Contains(raw, []byte(`"n":"\u003ca\u0026b\u003e\u2028"`)) {
		t.Errorf("value not HTML-escaped on the wire: %s", raw)
	}
	if miss.Stats == nil || miss.Stats.CacheHit {
		t.Errorf("first request stats = %+v, want a cache miss", miss.Stats)
	}

	// The repeat is a cache hit with the same answer.
	code, raw = post(sel)
	hit := decode(raw)
	if code != http.StatusOK || hit.Stats == nil || !hit.Stats.CacheHit {
		t.Fatalf("repeat: %d %s, want a cache hit", code, raw)
	}
	if !reflect.DeepEqual(hit.Vars, miss.Vars) || !reflect.DeepEqual(hit.Bindings, miss.Bindings) {
		t.Errorf("cache hit = %v %v, miss = %v %v", hit.Vars, hit.Bindings, miss.Vars, miss.Bindings)
	}

	// An empty result is [], not null.
	code, raw = post(query(pre + `SELECT ?x WHERE { ?x s:isA s:Nothing }`))
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"bindings":[]`)) {
		t.Errorf("empty result: %d %s", code, raw)
	}

	// ASK answers in bool.
	for q, wantBool := range map[string]bool{
		pre + `ASK { s:Lead s:isA s:HazardousWaste }`: true,
		pre + `ASK { s:Gold s:isA s:HazardousWaste }`: false,
	} {
		code, raw = post(query(q))
		if code != http.StatusOK || decode(raw).Bool != wantBool {
			t.Errorf("%s: %d %s, want bool %v", q, code, raw, wantBool)
		}
		if !bytes.Contains(raw, []byte(`"vars":null,"bindings":[]`)) {
			t.Errorf("%s: ASK body %s, want null vars and empty bindings", q, raw)
		}
	}

	// The user is resolved before the query is parsed.
	for _, tc := range []struct {
		body     string
		status   int
		wantCode string
	}{
		{`{"user":"ghost","query":"SELEC"}`, http.StatusNotFound, codeNotFound},
		{`{"user":"alice","query":"SELEC"}`, http.StatusBadRequest, codeBadRequest},
	} {
		resp := postJSON(t, ts.URL+"/api/v1/sparql", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
		if e := envelope(t, resp); e.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.body, e.Code, tc.wantCode)
		}
	}
}

// TestV1SPARQLClientGone pins what /api/v1/sparql does once its client has
// gone: evaluation stops, the answer is the 503 unavailable envelope, and
// nothing is cached, so the next request evaluates afresh.
func TestV1SPARQLClientGone(t *testing.T) {
	ts, s := newV1Server(t, 0, 0)
	resp := postJSON(t, ts.URL+"/api/v1/users", `{"name":"alice"}`)
	resp.Body.Close()
	for _, subj := range []string{"Mercury", "Lead", "Zinc"} {
		resp := postJSON(t, ts.URL+"/api/v1/statements", `{"user":"alice","subject":"`+subj+`","property":"isA","object":"HazardousWaste"}`)
		resp.Body.Close()
	}
	for _, q := range []string{
		`SELECT ?s ?o WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p <http://nowhere/> }`,
		`ASK { ?s ?p ?o }`,
	} {
		body := `{"user":"alice","query":"` + q + `"}`
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sparql", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503: %s", q, rec.Code, rec.Body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != codeUnavailable {
			t.Fatalf("%s: body %s, want the %q envelope", q, rec.Body, codeUnavailable)
		}

		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sparql", strings.NewReader(body)))
		var out struct {
			Stats struct {
				CacheHit bool `json:"cache_hit"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s after cancel: %d %s", q, rec.Code, rec.Body)
		}
		if out.Stats.CacheHit {
			t.Errorf("%s: the cancelled evaluation was cached", q)
		}
	}
}
