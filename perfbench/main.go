// Command perfbench is the repository benchmark: it builds the CroSSE
// server as cmd/crosse-server does, drives one named workload over a real
// loopback listener from a seed, checks the answers against the serial
// oracle and the journal against a reopen, and prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload hot-read-write -seed 1 -seconds 15 -trace 0 -workdir DIR
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer metrics of a traced replay down the layer ladder. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"crosse/internal/serve"
	"crosse/internal/wal"
)

const (
	warmUp = time.Second // untimed traffic before every timed phase
	setups = 3           // set-ups per untraced run; setup_s and heap_mb are their medians
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metrics is the result line's metric set.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload name")
		seed     = fs.Int64("seed", 1, "request seed")
		seconds  = fs.Int("seconds", 10, "timed seconds per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		workdir  = fs.String("workdir", "", "scratch directory for journals (required)")
		traceDir = fs.String("trace-dir", "", "directory the traced run writes its spans to (default: workdir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl := findWorkload(*name)
	switch {
	case wl == nil:
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case *workdir == "":
		return fmt.Errorf("-workdir is required")
	}
	if *traceDir == "" {
		*traceDir = *workdir
	}
	dur := time.Duration(*seconds) * time.Second

	n := 1
	if *trace == 0 {
		n = setups
	}
	sys, setupS, heapMB, err := setUp(wl, *workdir, n)
	if err != nil {
		return err
	}
	defer func() {
		sys.close()
		os.RemoveAll(sys.dir)
	}()

	m := metrics{}
	meta := runMeta(wl, *seed, *seconds, *trace)
	var total *loadStats
	if *trace == 0 {
		ph := runPhases(sys, *seed, 0, dur, untraced)
		if err := endToEnd(ph, setupS, heapMB, m, meta); err != nil {
			return err
		}
		total = ph.total()
	} else if total, err = tracedRun(sys, *seed, dur, *traceDir, m, meta); err != nil {
		return err
	}
	if len(total.errs) > 0 {
		meta["errors"] = total.errs
	}
	meta["error_rate"] = ratio(float64(total.failed), float64(total.attempted))

	rep := &checkReport{}
	if err := checkAnswers(sys, *seed, rep); err != nil {
		return fmt.Errorf("answer check: %w", err)
	}
	if err := checkDurability(sys, total.acks, rep); err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	meta["checks"] = rep
	correct := len(rep.Mismatches) == 0 && rep.Durable == rep.Acked

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(result{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: m})
}

// tracedRun spends half the time on untraced traffic, for the counter
// deltas and the baseline goodput, and half replaying a sample of the
// workload down the ladder; it writes the spans to traceDir.
func tracedRun(sys *system, seed int64, dur time.Duration, traceDir string, m metrics, meta map[string]any) (*loadStats, error) {
	half := dur / 2
	base := runPhases(sys, seed, 0, half, untraced)
	counterMetrics(base, m)

	l, err := newLadder(sys)
	if err != nil {
		return nil, err
	}
	tr := runPhases(sys, seed, traceStreams, half, l.executor)
	spans, stages, acks := l.collect()
	layerMetrics(spans, stages, m)
	goodput, traced := base.timed.goodput(), tr.timed.goodput()
	m.add("trace.goodput_ops", "ops/s", traced)
	m.add("trace.untraced_goodput_ops", "ops/s", goodput)
	m.add("trace.overhead", "ratio", 1-ratio(traced, goodput))

	path := filepath.Join(traceDir, sys.wl.name+".spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	meta["spans_file"] = path

	total := base.total()
	total.merge(tr.total())
	total.acks = append(total.acks, acks...)
	return total, nil
}

// setUp builds the system n times, tearing each down before the next, and
// returns the last with every set-up's time and live heap.
func setUp(wl *workload, workdir string, n int) (*system, []float64, []float64, error) {
	var sys *system
	var setupS, heapMB []float64
	for i := 0; i < n; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, nil, err
			}
			os.RemoveAll(sys.dir)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startSystem(wl, workdir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = append(heapMB, float64(ms.HeapInuse)/(1<<20))
		sys = s
	}
	return sys, setupS, heapMB, nil
}

// endToEnd fills the untraced run's metrics. A percentile without
// minBeyond samples beyond it fails the run.
func endToEnd(ph phases, setupS, heapMB []float64, m metrics, meta map[string]any) error {
	ld, wp := ph.timed, ph.writes
	tails := []struct {
		name    string
		phase   *loadStats
		samples []sample
		q       float64
	}{
		{"query_p50_ms", ld, ld.reads, 0.50},
		{"query_p99_ms", ld, ld.reads, 0.99},
		{"write_p50_ms", wp, wp.writes, 0.50},
		{"write_p90_ms", wp, wp.writes, 0.90},
	}
	sliceCounts := map[string]int{}
	for _, t := range tails {
		v, k, err := windowedPercentile(t.samples, t.phase.span, t.q)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		m.add(t.name, "ms", v)
		sliceCounts[t.name] = k
	}
	m.add("setup_s", "s", median(setupS))
	m.add("goodput_ops", "ops/s", ld.goodput())
	m.add("heap_mb", "MB", median(heapMB))
	meta["samples"] = map[string]int{"reads": len(ld.reads), "writes": len(wp.writes)}
	meta["slices"] = sliceCounts
	shapes := map[string]map[string]float64{}
	for k, v := range ld.byShape {
		shapes[k] = map[string]float64{"n": float64(len(v)), "p50_ms": median(v)}
	}
	if wp != ld {
		shapes["insert"] = map[string]float64{"n": float64(len(wp.writes)), "p50_ms": m["write_p50_ms"].Value}
	}
	meta["shapes"] = shapes
	meta["setup_s_each"] = setupS
	meta["heap_mb_each"] = heapMB
	return nil
}

// counters is a snapshot of the counters the program keeps itself.
type counters struct {
	cache                serve.CacheStats
	planHits, planMisses int
	wal                  wal.Status
	fdwReq, fdwRows      int
	fdwRetries           int
	totalAlloc           uint64
	gcCPU, totalCPU      float64
}

func snapshot(sys *system) counters {
	c := counters{wal: sys.journal.Status()}
	if sys.cache != nil {
		c.cache = sys.cache.Stats()
	}
	c.planHits, c.planMisses = sys.enricher.QueryCacheStats()
	if sys.fdwClient != nil {
		c.fdwReq, c.fdwRows = sys.fdwClient.Stats()
		c.fdwRetries = sys.fdwClient.Retries()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return c
}

// counterMetrics reports the counter deltas over an untraced timed phase,
// and the journal's over the phase that carried the writes.
func counterMetrics(ph phases, m metrics) {
	a, b := ph.timed.before, ph.timed.after
	hits := float64(b.cache.Hits - a.cache.Hits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	m.add("serve.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.add("serve.evictions", "count", float64(b.cache.Evictions-a.cache.Evictions))
	planHits, planMisses := float64(b.planHits-a.planHits), float64(b.planMisses-a.planMisses)
	m.add("core.plan_hit_ratio", "ratio", ratio(planHits, planHits+planMisses))
	wa, wb := ph.writes.before.wal, ph.writes.after.wal
	appends := float64(wb.Appends - wa.Appends)
	m.add("wal.bytes_per_write", "B", ratio(float64(wb.Size-wa.Size), appends))
	m.add("wal.appends_per_sync", "ratio", ratio(appends, float64(wb.Syncs-wa.Syncs)))
	m.add("fdw.requests", "count", float64(b.fdwReq-a.fdwReq))
	m.add("fdw.rows", "count", float64(b.fdwRows-a.fdwRows))
	m.add("fdw.retries", "count", float64(b.fdwRetries-a.fdwRetries))
	m.add("runtime.alloc_bytes_per_op", "B", ratio(float64(b.totalAlloc-a.totalAlloc), float64(ph.timed.attempted)))
	m.add("runtime.gc_cpu_fraction", "ratio", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
}

// runMeta is the context every result carries, so a number taken on one
// core is never read as scaling.
func runMeta(wl *workload, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":   wl.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clients":    runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"sizes": map[string]any{
			"landfills":     wl.landfills,
			"users":         wl.users,
			"extra_triples": wl.extraTriples,
			"fdw_landfills": wl.fdwLandfills,
			"cache_entries": wl.cacheEntries,
			"write_one_in":  wl.writeOneIn,
		},
	}
}

// cpuModel reads the processor name Linux reports; empty elsewhere.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
