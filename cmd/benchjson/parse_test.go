package main

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: crosse
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBeliefImport/statements1000-8         	     100	    217979 ns/op	  225168 B/op	      59 allocs/op
BenchmarkManyUserMemory/sharedOverlays         	       1	 151487130 ns/op	90617784 B/op	  109326 allocs/op
BenchmarkConcurrentEnrich-4   	    3532	    627344 ns/op
BenchmarkCustomMetric-2    	      10	   100 ns/op	        42.5 widgets/op
BenchmarkBroken 	--- FAIL
PASS
ok  	crosse	1.234s
`

// at returns the entry for one GOMAXPROCS setting of one benchmark.
func at(t *testing.T, r Report, name string, cpu int) Metrics {
	t.Helper()
	for _, e := range r.Benchmarks {
		if e.Name == name && e.CPU == cpu {
			return e.Metrics
		}
	}
	t.Fatalf("no entry for %s cpu=%d: %v", name, cpu, r.Benchmarks)
	return nil
}

// entries returns all of one benchmark's entries, in report order.
func entries(r Report, name string) []Entry {
	var es []Entry
	for _, e := range r.Benchmarks {
		if e.Name == name {
			es = append(es, e)
		}
	}
	return es
}

func TestParse(t *testing.T) {
	r, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if r.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.GOOS != "linux" || r.GOARCH != "amd64" || r.CPUModel != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("host = %q %q %q", r.GOOS, r.GOARCH, r.CPUModel)
	}
	if r.NProc != 0 {
		t.Errorf("nproc = %d before SetNProc, want 0 (unknown)", r.NProc)
	}
	if len(r.Benchmarks) != 4 {
		t.Fatalf("parsed %d entries, want 4: %v", len(r.Benchmarks), r.Benchmarks)
	}

	m := at(t, r, "BenchmarkBeliefImport/statements1000", 8)
	if m["ns/op"] != 217979 || m["B/op"] != 225168 || m["allocs/op"] != 59 || m["iterations"] != 100 {
		t.Errorf("BeliefImport metrics = %v", m)
	}

	// No suffix means the run was at GOMAXPROCS=1.
	if m := at(t, r, "BenchmarkManyUserMemory/sharedOverlays", 1); m["B/op"] != 90617784 {
		t.Errorf("sharedOverlays metrics = %v", m)
	}
	if m := at(t, r, "BenchmarkConcurrentEnrich", 4); m["ns/op"] != 627344 {
		t.Errorf("ConcurrentEnrich metrics = %v", m)
	}
	if m := at(t, r, "BenchmarkCustomMetric", 2); m["widgets/op"] != 42.5 {
		t.Errorf("custom metric = %v", m)
	}
	for _, e := range r.Benchmarks {
		if e.Name == "BenchmarkBroken" {
			t.Error("failed benchmark line should be skipped")
		}
	}
}

// The artifact must be deterministic: entries sorted by name, then rising
// CPU, no matter what order the runs appeared in the input.
func TestParseDeterministicOrder(t *testing.T) {
	const scrambled = `goos: linux
BenchmarkZeta-8    	      10	    100 ns/op
BenchmarkAlpha/x-4 	      10	    100 ns/op
BenchmarkAlpha/x-8 	      10	    100 ns/op
BenchmarkAlpha/x   	      10	    100 ns/op
BenchmarkMid-2     	      10	    100 ns/op
PASS
`
	r, err := Parse(scrambled)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]benchKey, len(r.Benchmarks))
	for i, e := range r.Benchmarks {
		got[i] = benchKey{e.Name, e.CPU}
	}
	want := []benchKey{
		{"BenchmarkAlpha/x", 1},
		{"BenchmarkAlpha/x", 4},
		{"BenchmarkAlpha/x", 8},
		{"BenchmarkMid", 2},
		{"BenchmarkZeta", 8},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !sort.SliceIsSorted(r.Benchmarks, func(i, j int) bool {
		a, b := r.Benchmarks[i], r.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.CPU < b.CPU
	}) {
		t.Errorf("report not sorted by (name, cpu): %v", got)
	}
}

// A -cpu sweep reports the same name at several GOMAXPROCS settings: each
// must become its own entry (not a mean across settings), ordered by
// rising CPU so scaling curves read straight off the artifact.
func TestParseCPUSweep(t *testing.T) {
	const sweep = `goos: linux
BenchmarkSQLJoin/Hash100k-8    	      50	   2000000 ns/op
BenchmarkSQLJoin/Hash100k-4    	      30	   3500000 ns/op
BenchmarkSQLJoin/Hash100k    	      10	  12000000 ns/op
PASS
`
	r, err := Parse(sweep)
	if err != nil {
		t.Fatal(err)
	}
	es := entries(r, "BenchmarkSQLJoin/Hash100k")
	if len(es) != 3 {
		t.Fatalf("sweep produced %d entries, want 3: %v", len(es), es)
	}
	for i, want := range []struct {
		cpu int
		ns  float64
	}{{1, 12000000}, {4, 3500000}, {8, 2000000}} {
		if es[i].CPU != want.cpu || es[i].Metrics["ns/op"] != want.ns {
			t.Errorf("entry %d = cpu %d, %v ns/op; want cpu %d, %v ns/op",
				i, es[i].CPU, es[i].Metrics["ns/op"], want.cpu, want.ns)
		}
	}
}

// With -count>1 the same benchmark name repeats at the same GOMAXPROCS;
// the report must aggregate (mean per metric), not keep whichever run came
// last.
func TestParseAggregatesRepeatedRuns(t *testing.T) {
	const repeated = `goos: linux
BenchmarkFoo-8    	     100	    1000 ns/op	     320 B/op	       4 allocs/op
BenchmarkFoo-8    	     300	    3000 ns/op	     280 B/op	       4 allocs/op
BenchmarkFoo-8    	     200	    2600 ns/op	     300 B/op	       4 allocs/op
BenchmarkBar-8    	      10	     500 ns/op
PASS
`
	r, err := Parse(repeated)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("parsed %d entries, want 2: %v", len(r.Benchmarks), r.Benchmarks)
	}
	m := at(t, r, "BenchmarkFoo", 8)
	if m["ns/op"] != 2200 {
		t.Errorf("ns/op = %v, want mean 2200", m["ns/op"])
	}
	if m["B/op"] != 300 {
		t.Errorf("B/op = %v, want mean 300", m["B/op"])
	}
	if m["allocs/op"] != 4 {
		t.Errorf("allocs/op = %v, want 4", m["allocs/op"])
	}
	if m["iterations"] != 200 {
		t.Errorf("iterations = %v, want mean 200", m["iterations"])
	}
	if at(t, r, "BenchmarkBar", 8)["ns/op"] != 500 {
		t.Errorf("single-run benchmark affected by aggregation: %v", entries(r, "BenchmarkBar"))
	}
}

func TestSplitProcs(t *testing.T) {
	cases := map[string]struct {
		name string
		cpu  int
	}{
		"BenchmarkFoo-8":             {"BenchmarkFoo", 8},
		"BenchmarkFoo/bar-16":        {"BenchmarkFoo/bar", 16},
		"BenchmarkFoo/size1000":      {"BenchmarkFoo/size1000", 1}, // no dash at all
		"BenchmarkFoo/extraKB-x":     {"BenchmarkFoo/extraKB-x", 1},
		"BenchmarkFoo/size-100000":   {"BenchmarkFoo/size-100000", 1}, // dash-digits, but not a plausible GOMAXPROCS
		"BenchmarkFoo/size-100000-8": {"BenchmarkFoo/size-100000", 8},
	}
	for in, want := range cases {
		if name, cpu := splitProcs(in); name != want.name || cpu != want.cpu {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", in, name, cpu, want.name, want.cpu)
		}
	}
}

// The scaling guard: multi-core ns/op must stay within the ratio of the
// single-core baseline, and degenerate sweeps (nothing matched, no
// baseline, no multi-core run) fail rather than pass vacuously.
func TestGuard(t *testing.T) {
	const sweep = `goos: linux
BenchmarkScalesWell/N100k    	      10	  12000000 ns/op
BenchmarkScalesWell/N100k-4  	      30	   3500000 ns/op
BenchmarkScalesWell/N100k-8  	      50	   2000000 ns/op
BenchmarkRegresses/N100k     	      10	  10000000 ns/op
BenchmarkRegresses/N100k-8   	       8	  13000000 ns/op
BenchmarkFlat/N100k          	      10	  10000000 ns/op
BenchmarkFlat/N100k-8        	      10	  10500000 ns/op
BenchmarkNoBaseline-8        	      10	   1000 ns/op
PASS
`
	r, err := Parse(sweep)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		pattern string
		wantErr string // substring; "" = pass
	}{
		{"speedup passes", "BenchmarkScalesWell", ""},
		{"within tolerance passes", "BenchmarkFlat", ""},
		{"regression fails", "BenchmarkRegresses", "parallel-scaling guard failed"},
		{"regression named in error", "BenchmarkScalesWell|BenchmarkRegresses", "BenchmarkRegresses/N100k"},
		{"no match fails", "BenchmarkGhost", "matched no benchmarks"},
		{"missing baseline fails", "BenchmarkNoBaseline", "need a cpu=1 baseline"},
	}
	for _, tc := range cases {
		err := Guard(r, regexp.MustCompile(tc.pattern), 1.10)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// The ratio knob is honoured: 1.3 tolerates the 1.3x regression's
	// sibling at 1.05x but a strict 1.0 rejects even BenchmarkFlat.
	if err := Guard(r, regexp.MustCompile("BenchmarkFlat"), 1.0); err == nil {
		t.Error("ratio 1.0 should reject a 1.05x entry")
	}
	if err := Guard(r, regexp.MustCompile("BenchmarkRegresses"), 1.5); err != nil {
		t.Errorf("ratio 1.5 should tolerate a 1.3x entry: %v", err)
	}
}

// SetNProc records the host's core count and marks exactly the entries run
// at more GOMAXPROCS than that, so a 1-core snapshot's -cpu 4 figures
// cannot be read as scaling. Unmarked entries carry no field on the wire.
func TestSetNProc(t *testing.T) {
	r, err := Parse(`BenchmarkA    	10	100 ns/op
BenchmarkA-2  	10	 60 ns/op
BenchmarkA-4  	10	 70 ns/op
`)
	if err != nil {
		t.Fatal(err)
	}
	r.SetNProc(2)
	if r.NProc != 2 {
		t.Errorf("nproc = %d, want 2", r.NProc)
	}
	for _, e := range r.Benchmarks {
		if want := e.CPU > 2; e.Oversubscribed != want {
			t.Errorf("cpu=%d oversubscribed = %v, want %v", e.CPU, e.Oversubscribed, want)
		}
	}
	enc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(enc), `"oversubscribed":true`); got != 1 {
		t.Errorf("%d oversubscribed marks in %s, want 1", got, enc)
	}
	if !strings.Contains(string(enc), `"nproc":2`) || strings.Contains(string(enc), `"oversubscribed":false`) {
		t.Errorf("artifact %s", enc)
	}

	// Unknown core count: nothing is marked.
	r.SetNProc(0)
	for _, e := range r.Benchmarks {
		if e.Oversubscribed {
			t.Errorf("cpu=%d marked with nproc unknown", e.CPU)
		}
	}
}

// With the core count known, Guard compares cpu=1 against the highest
// setting the host really has: an oversubscribed regression does not
// fail the build, a regression within nproc still does, and a family with
// no multi-core run within nproc fails loud. With nproc unknown, the
// highest setting counts, as before.
func TestGuardSkipsOversubscribed(t *testing.T) {
	r, err := Parse(`BenchmarkOverOnly    	10	100 ns/op
BenchmarkOverOnly-2  	10	 60 ns/op
BenchmarkOverOnly-4  	10	300 ns/op
BenchmarkWithin      	10	100 ns/op
BenchmarkWithin-2    	10	150 ns/op
BenchmarkWithin-4    	10	 50 ns/op
BenchmarkNoMulti     	10	100 ns/op
BenchmarkNoMulti-4   	10	 50 ns/op
`)
	if err != nil {
		t.Fatal(err)
	}
	guard := func(pattern string) error { return Guard(r, regexp.MustCompile(pattern), 1.10) }

	if err := guard("BenchmarkOverOnly"); err == nil {
		t.Error("nproc unknown: the cpu=4 regression must fail")
	}
	if err := guard("BenchmarkWithin"); err != nil {
		t.Errorf("nproc unknown: cpu=4 is the comparison point: %v", err)
	}

	r.SetNProc(2)
	if err := guard("BenchmarkOverOnly"); err != nil {
		t.Errorf("nproc 2: the oversubscribed cpu=4 entry must be ignored: %v", err)
	}
	if err := guard("BenchmarkWithin"); err == nil || !strings.Contains(err.Error(), "cpu=2") {
		t.Errorf("nproc 2: the cpu=2 regression must fail, got %v", err)
	}
	if err := guard("BenchmarkNoMulti"); err == nil || !strings.Contains(err.Error(), "not oversubscribed") {
		t.Errorf("nproc 2: no multi-core run within nproc must fail, got %v", err)
	}
}
