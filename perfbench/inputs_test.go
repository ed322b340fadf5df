package main

import (
	"reflect"
	"testing"
)

// TestInputsDeterministic pins that a seed fully determines every
// workload's generated inputs, and that different seeds differ.
func TestInputsDeterministic(t *testing.T) {
	gen := map[string]func(uint64) any{
		"figures":  func(s uint64) any { return genFigures(s) },
		"campaign": func(s uint64) any { return genCampaign(s) },
		"service":  func(s uint64) any { return genService(s) },
		"fleet":    func(s uint64) any { return genFleet(s) },
	}
	for name, g := range gen {
		for _, seed := range []uint64{0, 1, 42} {
			a, b := g(seed), g(seed)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: inputs differ between generations:\n%+v\n%+v", name, seed, a, b)
			}
		}
		if reflect.DeepEqual(g(1), g(2)) {
			t.Errorf("%s: seeds 1 and 2 generate identical inputs", name)
		}
	}
	for _, w := range workloads {
		if _, ok := gen[w.name]; !ok {
			t.Errorf("workload %s has no input determinism check", w.name)
		}
	}
}

// TestServiceJobStream pins the job stream: each block draws every
// program exactly once, seeds differ per job, and job k is a pure
// function of (seed, k).
func TestServiceJobStream(t *testing.T) {
	in := genService(7)
	lib := serviceProgs()
	if len(lib) != len(serviceTrials) {
		t.Fatalf("library %v does not match the trial table %v", lib, serviceTrials)
	}
	seeds := map[uint64]bool{}
	for block := 0; block < 50; block++ {
		seen := map[string]int{}
		for i := range lib {
			k := block*len(lib) + i
			prog, seed := in.job(k)
			seen[prog]++
			seeds[seed] = true
			if p2, s2 := genService(7).job(k); p2 != prog || s2 != seed {
				t.Fatalf("job %d differs between generations", k)
			}
		}
		for _, p := range lib {
			if seen[p] != 1 {
				t.Fatalf("block %d draws %s %d times: %v", block, p, seen[p], seen)
			}
		}
	}
	if len(seeds) != 50*len(lib) {
		t.Errorf("%d distinct job seeds for %d jobs", len(seeds), 50*len(lib))
	}
}
