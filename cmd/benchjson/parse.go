package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the artifact layout so downstream tooling can
// diff BENCH.json files across PRs without sniffing their shape. Version 1
// was the unversioned benchmark-name → entry-list map; version 2 flattened
// the report into a sorted entry list under a top-level schema_version.
// Version 3 adds the host: goos, goarch and CPU model from go test's
// header, nproc from the caller, and an oversubscribed mark on entries run
// at more GOMAXPROCS than the host has cores.
const SchemaVersion = 3

// Metrics is one benchmark's measurements: unit → value. Units come
// straight from the benchmark line ("ns/op", "B/op", "allocs/op", plus any
// custom testing.B ReportMetric units); "iterations" records the run count.
type Metrics map[string]float64

// Entry is one benchmark's measurements at one GOMAXPROCS setting. The
// processor count go test appends to the name ("-8") lands in CPU instead
// of the name, so a `-cpu 1,4,8` scaling sweep yields one entry per
// setting rather than a meaningless mean across them.
type Entry struct {
	Name    string  `json:"name"`
	CPU     int     `json:"cpu"`
	Metrics Metrics `json:"metrics"`
	// Oversubscribed marks a run at more GOMAXPROCS than the host has
	// cores: its ns/op shows scheduling overhead, not scaling.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// Report is the artifact: the schema version plus every (name, cpu)
// bucket, sorted by name then rising CPU, so byte-identical inputs always
// produce byte-identical artifacts and scaling curves read straight off
// adjacent entries. When the same (name, cpu) pair appears more than once
// (e.g. -count>1), each metric is the mean over the repeated runs, so the
// artifact reflects all measurements instead of whichever run came last.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// The host the benchmarks ran on. GOOS, GOARCH and CPUModel come from
	// go test's header lines; NProc, the host's core count, is not in the
	// output and is set by SetNProc (0 when unknown).
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	CPUModel   string  `json:"cpu_model,omitempty"`
	NProc      int     `json:"nproc,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

// SetNProc records the host's core count and marks every entry run at
// more GOMAXPROCS than that as oversubscribed.
func (r *Report) SetNProc(n int) {
	r.NProc = n
	for i := range r.Benchmarks {
		r.Benchmarks[i].Oversubscribed = n > 0 && r.Benchmarks[i].CPU > n
	}
}

// benchKey identifies one aggregation bucket: repeated runs of a name at
// the same GOMAXPROCS average together, runs at different settings don't.
type benchKey struct {
	name string
	cpu  int
}

// Parse extracts benchmark results from `go test -bench` output. Non-result
// lines (pkg headers, PASS, logs) are ignored.
func Parse(out string) (Report, error) {
	sums := map[benchKey]Metrics{}
	counts := map[benchKey]map[string]int{}
	report := Report{SchemaVersion: SchemaVersion}
	for _, line := range strings.Split(out, "\n") {
		// Header lines name the host: "goos: linux", "cpu: <model>".
		hk, hv, _ := strings.Cut(line, ": ")
		switch hv = strings.TrimSpace(hv); hk {
		case "goos":
			report.GOOS = hv
		case "goarch":
			report.GOARCH = hv
		case "cpu":
			report.CPUModel = hv
		}
		fields := strings.Fields(line)
		// A result line is: name iterations (value unit)+
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo 	--- FAIL"
		}
		m := Metrics{"iterations": iters}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			m[fields[i+1]] = v
		}
		if !ok || len(m) == 1 {
			continue
		}
		name, cpu := splitProcs(fields[0])
		key := benchKey{name, cpu}
		if sums[key] == nil {
			sums[key] = Metrics{}
			counts[key] = map[string]int{}
		}
		for unit, v := range m {
			sums[key][unit] += v
			counts[key][unit]++
		}
	}
	for key, acc := range sums {
		m := Metrics{}
		for unit, sum := range acc {
			m[unit] = sum / float64(counts[key][unit])
		}
		report.Benchmarks = append(report.Benchmarks, Entry{Name: key.name, CPU: key.cpu, Metrics: m})
	}
	sort.Slice(report.Benchmarks, func(i, j int) bool {
		a, b := report.Benchmarks[i], report.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.CPU < b.CPU
	})
	return report, nil
}

// Guard enforces the parallel-scaling floor on a -cpu sweep: for every
// benchmark whose name matches pattern, ns/op at the highest GOMAXPROCS
// setting must not exceed maxRatio × ns/op at GOMAXPROCS=1 — a parallel
// stage may fail to speed a workload up, but it must never make it slower
// than the serial path beyond measurement jitter. A pattern that matches
// nothing, or a matched benchmark missing its single-core baseline or a
// multi-core setting, is an error too: a mis-wired sweep must fail loud,
// not pass vacuously. When the core count is known (SetNProc), the
// comparison uses the highest setting not marked oversubscribed: a run at
// more GOMAXPROCS than cores measures scheduling overhead, not scaling.
func Guard(r Report, pattern *regexp.Regexp, maxRatio float64) error {
	byName := map[string][]Entry{}
	var names []string
	for _, e := range r.Benchmarks {
		if !pattern.MatchString(e.Name) {
			continue
		}
		if byName[e.Name] == nil {
			names = append(names, e.Name)
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	if len(names) == 0 {
		return fmt.Errorf("guard pattern %q matched no benchmarks", pattern)
	}
	var bad []string
	for _, n := range names {
		es := byName[n] // report order: rising CPU
		for len(es) > 1 && es[len(es)-1].Oversubscribed {
			es = es[:len(es)-1]
		}
		base, top := es[0], es[len(es)-1]
		if base.CPU != 1 || top.CPU == 1 {
			bad = append(bad, fmt.Sprintf("%s: need a cpu=1 baseline and a multi-core run that is not oversubscribed, got cpu settings %v", n, cpus(byName[n])))
			continue
		}
		b, t := base.Metrics["ns/op"], top.Metrics["ns/op"]
		if b <= 0 || t <= 0 {
			bad = append(bad, fmt.Sprintf("%s: missing ns/op (cpu=1: %v, cpu=%d: %v)", n, b, top.CPU, t))
			continue
		}
		if t > maxRatio*b {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op at cpu=%d vs %.0f ns/op at cpu=1 (%.2fx, limit %.2fx)",
				n, t, top.CPU, b, t/b, maxRatio))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("parallel-scaling guard failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func cpus(es []Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.CPU
	}
	return out
}

// splitProcs separates the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkFoo/bar-8" → "BenchmarkFoo/bar", 8). Only a
// plausible processor count (1..1024) is treated as a suffix, so a
// dash-digit tail that is part of the benchmark's own name (e.g. a
// "size-100000" sub-benchmark on a GOMAXPROCS=1 runner, where go test
// appends nothing) is kept intact. Without a suffix the run was at
// GOMAXPROCS=1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 || n > 1024 {
		return name, 1
	}
	return name[:i], n
}
