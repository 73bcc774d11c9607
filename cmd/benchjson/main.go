// Command benchjson converts `go test -bench` output into a machine-readable
// JSON artifact — a versioned list of (benchmark name, GOMAXPROCS, metrics)
// entries sorted by name then CPU — holding the GOMAXPROCS setting (the
// "-8" suffix go test appends to the name) and the metrics measured there
// (ns/op, B/op, allocs/op and any custom ReportMetric units), so CI can
// track both the performance trajectory across PRs and the parallel-scaling
// curve of a `-cpu 1,4,8` sweep without scraping text logs.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | go run ./cmd/benchjson -nproc "$(nproc)" -out BENCH.json
//
// -nproc records the host's core count in the artifact and marks entries
// run at more GOMAXPROCS than that as oversubscribed, so nobody reads
// their overhead as scaling.
//
// With -guard, benchjson also enforces the parallel-scaling floor and
// exits nonzero when any matched family's highest-CPU ns/op exceeds its
// single-core ns/op by more than -guard-ratio (with -nproc, the highest CPU
// setting within the host's cores):
//
//	go run ./cmd/benchjson -in bench.txt -out BENCH.json \
//	  -guard 'BenchmarkSQLJoinBuildHeavy|BenchmarkSPARQLPathHead'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
)

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	guard := flag.String("guard", "", "regexp of benchmark families whose highest-CPU ns/op must stay within -guard-ratio of their cpu=1 ns/op; exit nonzero on violation")
	guardRatio := flag.Float64("guard-ratio", 1.10, "max allowed highest-CPU/single-core ns/op ratio under -guard")
	nproc := flag.Int("nproc", 0, "the host's core count; entries with a higher cpu are marked oversubscribed (0: unknown)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	report, err := Parse(string(data))
	if err != nil {
		fatal(err)
	}
	report.SetNProc(*nproc)
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	if *guard != "" {
		pat, err := regexp.Compile(*guard)
		if err != nil {
			fatal(err)
		}
		if err := Guard(report, pat, *guardRatio); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: scaling guard passed for %q (ratio limit %.2f)\n", *guard, *guardRatio)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
