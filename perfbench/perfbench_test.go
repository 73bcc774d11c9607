package main

import (
	"math"
	"reflect"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1: unsorted input
	}
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", v)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:200], 0.95); err != nil || v != 990 {
		// xs[:200] holds 1000 down to 801; its p95 is the 190th smallest.
		t.Errorf("p95 of 200 samples = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	if got := loosePercentile(xs[:5], 0.5); got != 0 {
		t.Errorf("loosePercentile of a short sample = %v, want 0", got)
	}
}

func TestPercentileLeavesInputOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	xs = append(xs, make([]float64, 30)...)
	before := append([]float64(nil), xs...)
	if _, err := percentile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(xs, before) {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimesSubtractRungBelow(t *testing.T) {
	us := int64(1000) // ns per µs
	spans := []span{
		// Request 1: http 100 µs over rest 60 µs over core 45 µs, whose
		// children are a 5 µs parse and two SPARQL spans of 10 µs each.
		{Req: 1, Name: "http", Start: 0, End: 100 * us},
		{Req: 1, Name: "rest", Parent: "http", Start: 0, End: 60 * us},
		{Req: 1, Name: "core", Parent: "rest", Start: 0, End: 45 * us},
		{Req: 1, Name: "sesql.parse", Parent: "core", Start: 0, End: 5 * us},
		{Req: 1, Name: "sparql.stream", Parent: "core", Start: 0, End: 10 * us},
		{Req: 1, Name: "sparql.stream", Parent: "core", Start: 0, End: 10 * us},
		// Request 2: a cache hit, so rest has no rung below it.
		{Req: 2, Name: "http", Start: 0, End: 30 * us},
		{Req: 2, Name: "rest", Parent: "http", Start: 0, End: 20 * us},
		// A span outside the ladder counts only itself.
		{Req: 1, Name: "sqlexec.serial_run", Start: 0, End: 7 * us},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"http":               {40, 10},
		"rest":               {15, 20},
		"core":               {20},
		"sesql.parse":        {5},
		"sparql.stream":      {10, 10},
		"sqlexec.serial_run": {7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b := newGenerator(wl, 42, 0), newGenerator(wl, 42, 0)
		other := newGenerator(wl, 43, 0)
		differs := false
		for i := 0; i < 500; i++ {
			ra, rb, ro := a.next(), b.next(), other.next()
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: request %d differs under one seed: %+v vs %+v", wl.name, i, ra, rb)
			}
			if !reflect.DeepEqual(ra, ro) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 drew the same 500 requests", wl.name)
		}
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, wl := range workloads {
		g := newGenerator(wl, 7, 0)
		writes, remote := 0, 0
		users := map[string]bool{}
		const n = 16000
		for i := 0; i < n; i++ {
			r := g.next()
			users[r.user] = true
			if r.kind == writeStmt {
				writes++
			}
			if r.remote != nil {
				remote++
			}
		}
		if len(users) != wl.users {
			t.Errorf("%s: drew %d users, want %d", wl.name, len(users), wl.users)
		}
		if wl.writeOneIn > 0 {
			share := float64(writes) / n
			if math.Abs(share-1/float64(wl.writeOneIn)) > 0.01 {
				t.Errorf("%s: write share %.3f, want about 1/%d", wl.name, share, wl.writeOneIn)
			}
		} else if writes != 0 {
			t.Errorf("%s: closed-loop clients drew %d writes, want none", wl.name, writes)
		}
		if (remote > 0) != (wl.fdwLandfills > 0) {
			t.Errorf("%s: %d remote reads with an FDW node of %d landfills", wl.name, remote, wl.fdwLandfills)
		}
	}
}

func TestWindowedFiguresTakeMedianOverSlices(t *testing.T) {
	// 10 s in ten 1-s slices of 100 requests each; slice 3 is a burst of
	// outside load: twice the latency and half the requests.
	var samples []sample
	for s := 0; s < 10; s++ {
		n, lat := 100, 1.0
		if s == 3 {
			n, lat = 50, 2.0
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{at: float64(s) + float64(i)/float64(n), ms: lat})
		}
	}
	if got := windowedGoodput(samples, 10); got != 100 {
		t.Errorf("windowedGoodput = %v, want 100 (the burst slice is outvoted)", got)
	}
	v, k, err := windowedPercentile(samples, 10, 0.5)
	if err != nil || k != windows || v != 1 {
		t.Errorf("windowed p50 = %v over %d slices (%v), want 1 over %d", v, k, err, windows)
	}
	// 950 samples hold 9.5 beyond their p99: refused outright.
	if _, _, err := windowedPercentile(samples, 10, 0.99); err == nil {
		t.Error("windowed p99 of 950 samples must be refused")
	}
	// p90 over 950 samples allows nine slices by count, but the burst slice
	// has only 50 samples (5 beyond), so fewer, wider slices are used.
	v, k, err = windowedPercentile(samples, 10, 0.9)
	if err != nil || k >= 9 || k < 1 {
		t.Errorf("windowed p90 = %v over %d slices (%v), want fewer than 9", v, k, err)
	}
}
