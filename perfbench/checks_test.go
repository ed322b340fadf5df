package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/stream"
)

func writeJournal(t *testing.T, idxs ...int) string {
	t.Helper()
	var b strings.Builder
	for _, i := range idxs {
		line, err := json.Marshal(campaign.TrialRecord{Key: "k", Index: i, Outcome: "benign", Attempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanJournal(t *testing.T) {
	for _, tc := range []struct {
		name       string
		idxs       []int
		trials     int
		inversions int
		duplicates int
		complete   bool
	}{
		{"sorted", []int{0, 1, 2, 3}, 4, 0, 0, true},
		{"completion order", []int{2, 3, 0, 1}, 4, 1, 0, true},
		{"every pair swapped", []int{1, 0, 3, 2}, 4, 2, 0, true},
		{"duplicate", []int{0, 1, 1, 2, 3}, 4, 0, 1, false},
		{"missing", []int{0, 1, 3}, 4, 0, 0, false},
	} {
		js, err := scanJournal(writeJournal(t, tc.idxs...), tc.trials)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if js.inversions != tc.inversions || js.duplicates != tc.duplicates || js.complete() != tc.complete {
			t.Errorf("%s: inversions %d duplicates %d complete %v, want %d %d %v",
				tc.name, js.inversions, js.duplicates, js.complete(), tc.inversions, tc.duplicates, tc.complete)
		}
	}
	if _, err := scanJournal(writeJournal(t, 0, 7), 4); err == nil {
		t.Error("out-of-range trial index accepted")
	}
}

// TestCheckAggregate runs a real campaign with a checkpoint and checks
// that its Result is reproduced from the journal, and that a Result
// that disagrees with the journal fails the check.
func TestCheckAggregate(t *testing.T) {
	prog, err := progs.GCD.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	spec := campaign.Spec{Trials: 70, Seed: 3, Workers: 2, Checkpoint: path}
	res, err := campaign.Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := scanJournal(path, spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	var ok checks
	checkAggregate(&ok, "journal", spec, js, res)
	if ok.failed != 0 || ok.passed != 2 {
		t.Errorf("matching journal: passed %d failed %d (%v)", ok.passed, ok.failed, ok.failures)
	}

	bad := res
	bad.Tally.SDC++
	var k checks
	checkAggregate(&k, "journal", spec, js, bad)
	if k.failed != 1 {
		t.Errorf("tampered Result passed the aggregate check")
	}

	js.recs[5] = nil
	var missing checks
	checkAggregate(&missing, "journal", spec, js, res)
	if missing.failed != 1 {
		t.Errorf("incomplete journal passed the aggregate check")
	}
}

func TestFrameMatches(t *testing.T) {
	res := campaign.Result{Ran: 10, Failed: 1, SDCRate: 0.25, SDCLo: 0.1, SDCHi: 0.5}
	good := stream.Frame{Final: true, Done: 10, Failed: 1, Rate: 0.25, Lo: 0.1, Hi: 0.5}
	if err := frameMatches(good, res); err != nil {
		t.Errorf("matching frame rejected: %v", err)
	}
	for name, fr := range map[string]stream.Frame{
		"not final":   {Done: 10, Failed: 1, Rate: 0.25, Lo: 0.1, Hi: 0.5},
		"done":        {Final: true, Done: 9, Failed: 1, Rate: 0.25, Lo: 0.1, Hi: 0.5},
		"failed":      {Final: true, Done: 10, Rate: 0.25, Lo: 0.1, Hi: 0.5},
		"rate":        {Final: true, Done: 10, Failed: 1, Rate: 0.3, Lo: 0.1, Hi: 0.5},
		"upper bound": {Final: true, Done: 10, Failed: 1, Rate: 0.25, Lo: 0.1, Hi: 0.6},
	} {
		if frameMatches(fr, res) == nil {
			t.Errorf("%s: mismatching frame accepted", name)
		}
	}
}

func TestDigestAndChecks(t *testing.T) {
	a, err := digest(map[string]int{"x": 1, "y": 2})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(map[string]int{"y": 2, "x": 1})
	c, _ := digest(map[string]int{"x": 1, "y": 3})
	if a != b || a == c || len(a) != 64 {
		t.Errorf("digests %s %s %s", a, b, c)
	}
	var k checks
	for i := 0; i < 30; i++ {
		k.expect(i%2 == 0, "odd %d", i)
	}
	rep := k.report(map[string]any{})
	if rep["checks_passed"] != 15 || rep["checks_failed"] != 15 || len(rep["failures"].([]string)) != 15 {
		t.Errorf("report %v", rep)
	}
}
