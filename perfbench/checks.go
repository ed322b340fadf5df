package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/stream"
)

// checks collects the outcome of a run's output checks. Safe for
// concurrent use.
type checks struct {
	mu       sync.Mutex
	passed   int
	failed   int
	failures []string
}

// expect records one check; a failed check keeps its message (the
// first few of them, so a systematic failure does not flood the
// report).
func (c *checks) expect(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.passed++
		return true
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// fail records an error as a failed check.
func (c *checks) fail(err error) { c.expect(false, "%v", err) }

// failedCount returns how many checks have failed so far.
func (c *checks) failedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

func (c *checks) report(into map[string]any) map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	into["checks_passed"] = c.passed
	into["checks_failed"] = c.failed
	into["failures"] = append([]string(nil), c.failures...)
	return into
}

// digest is the hex SHA-256 of v's JSON encoding: two commits run on
// the same seed can be diffed by it.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// variantDigests pins each input variant's output: the first operation
// on a variant records its digest and every later one must reproduce
// it, so a run checks determinism without a stored reference.
type variantDigests []string

func newVariantDigests() variantDigests { return make(variantDigests, variants) }

func (v variantDigests) check(c *checks, variant int, d, what string) bool {
	if v[variant] == "" {
		v[variant] = d
	}
	return c.expect(d == v[variant], "%s: variant %d output digest %s differs from its first operation's %s", what, variant, d, v[variant])
}

// journalScan is a trial journal read back from disk.
type journalScan struct {
	// recs holds one record per trial index, nil where none was read.
	recs []*campaign.TrialRecord
	// lines counts records; duplicates counts indices seen again.
	lines, duplicates int
	// inversions counts adjacent lines whose trial index decreases.
	inversions int
	bytes      int64
}

// scanJournal reads a JSONL trial journal (a campaign checkpoint or a
// fabric merged journal) of a campaign with the given trial count.
func scanJournal(path string, trials int) (journalScan, error) {
	js := journalScan{recs: make([]*campaign.TrialRecord, trials)}
	f, err := os.Open(path)
	if err != nil {
		return js, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	prev := -1
	for sc.Scan() {
		js.bytes += int64(len(sc.Bytes())) + 1
		var rec campaign.TrialRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return js, fmt.Errorf("%s line %d: %w", path, js.lines+1, err)
		}
		js.lines++
		if rec.Index < 0 || rec.Index >= trials {
			return js, fmt.Errorf("%s: trial index %d outside [0, %d)", path, rec.Index, trials)
		}
		if rec.Index < prev {
			js.inversions++
		}
		prev = rec.Index
		if js.recs[rec.Index] != nil {
			js.duplicates++
			continue
		}
		js.recs[rec.Index] = &rec
	}
	return js, sc.Err()
}

// complete reports whether the journal holds every index exactly once.
func (js journalScan) complete() bool {
	if js.duplicates > 0 || js.lines != len(js.recs) {
		return false
	}
	for _, r := range js.recs {
		if r == nil {
			return false
		}
	}
	return true
}

// checkAggregate verifies that folding a journal's records through
// campaign.AggregateRecords reproduces the campaign's Result.
func checkAggregate(c *checks, what string, spec campaign.Spec, js journalScan, res campaign.Result) {
	if !c.expect(js.complete(), "%s: journal holds %d lines for %d trials (%d duplicates)", what, js.lines, len(js.recs), js.duplicates) {
		return
	}
	agg, err := campaign.AggregateRecords(spec, res.Prog, js.recs)
	if err != nil {
		c.fail(fmt.Errorf("%s: aggregate journal: %w", what, err))
		return
	}
	c.expect(reflect.DeepEqual(agg, res), "%s: AggregateRecords over the journal differs from the returned Result", what)
}

// frameMatches reports whether a final progress frame agrees with the
// campaign Result it summarizes.
func frameMatches(fr stream.Frame, res campaign.Result) error {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	switch {
	case !fr.Final:
		return fmt.Errorf("last frame is not final")
	case fr.Done != uint64(res.Ran):
		return fmt.Errorf("final frame done=%d, result ran=%d", fr.Done, res.Ran)
	case fr.Failed != uint64(res.Failed):
		return fmt.Errorf("final frame failed=%d, result failed=%d", fr.Failed, res.Failed)
	case !near(fr.Rate, res.SDCRate) || !near(fr.Lo, res.SDCLo) || !near(fr.Hi, res.SDCHi):
		return fmt.Errorf("final frame sdc=%g [%g,%g], result sdc=%g [%g,%g]",
			fr.Rate, fr.Lo, fr.Hi, res.SDCRate, res.SDCLo, res.SDCHi)
	}
	return nil
}
