package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/stream"
)

// campaignBench runs in-process campaigns through campaign.RunContext
// with a checkpoint journal and a streaming plane as the observer.
type campaignBench struct {
	in       campaignInputs
	dir      string
	prog     *asm.Program
	progHash string

	checks  checks
	digests variantDigests
	rounds  int

	// Counters of the latest run, read by the per-layer probes.
	stats           *campaign.BatchStats
	allocBytes      uint64 // allocated inside campaign.RunContext
	allocPerTrial   float64
	orderViolations int
	replayRecords   uint64
	journalBytes    int64
}

func prepareCampaign(seed uint64) (any, func(ctx context.Context, dir string) (instance, error), error) {
	in := genCampaign(seed)
	lib, ok := progs.ByName(in.Prog)
	if !ok {
		return nil, nil, fmt.Errorf("unknown program %q", in.Prog)
	}
	return in, func(ctx context.Context, dir string) (instance, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		prog, err := lib.Assemble()
		if err != nil {
			return nil, err
		}
		return &campaignBench{in: in, dir: dir, prog: prog, progHash: campaign.ProgHash(prog),
			digests: newVariantDigests(), stats: &campaign.BatchStats{}}, nil
	}, nil
}

func (c *campaignBench) spec(scheme string, trials int, seed uint64, journal string) campaign.Spec {
	return campaign.Spec{
		Scheme:     scheme,
		Trials:     trials,
		Seed:       seed,
		Workers:    c.in.Workers,
		Checkpoint: journal,
		Stats:      c.stats,
	}
}

// phaseRun is one campaign.RunContext call of a round.
type phaseRun struct {
	res   campaign.Result
	frame stream.Frame
	took  time.Duration
}

// runPhase runs one campaign with a fresh plane as its observer. Its
// duration and allocation cover the plane's set-up and drain too.
func (c *campaignBench) runPhase(ctx context.Context, tr *tracer, parent int64, name string, spec campaign.Spec) (phaseRun, error) {
	alloc := allocatedBytes()
	sp := tr.begin(parent, name)
	t0 := clockNow()
	plane, err := stream.NewPlane(stream.PlaneConfig{
		Key:       spec.Normalized().Key(c.progHash),
		EmitEvery: 100 * time.Millisecond,
	})
	if err != nil {
		return phaseRun{}, err
	}
	spec.Observer = plane.Observe
	res, err := campaign.RunContext(ctx, c.prog, spec)
	if cerr := plane.Close(); err == nil {
		err = cerr
	}
	took := since(t0)
	sp.end()
	c.allocBytes += allocatedBytes() - alloc
	return phaseRun{res: res, frame: plane.Snapshot(), took: took}, err
}

// roundOut is what one round produced.
type roundOut struct {
	unsync, reunion, resume phaseRun
}

// round runs the three phases of the next input variant over fresh
// journals.
func (c *campaignBench) round(ctx context.Context, tr *tracer) (roundOut, error) {
	var out roundOut
	v := c.rounds % len(c.in.Seeds)
	c.rounds++
	upath := filepath.Join(c.dir, "unsync.jsonl")
	rpath := filepath.Join(c.dir, "reunion.jsonl")
	for _, p := range []string{upath, rpath} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return out, err
		}
	}
	root := tr.begin(0, "op")
	defer root.end()
	var err error
	uspec := c.spec(campaign.SchemeUnSync, c.in.UnSyncTrials, c.in.Seeds[v], upath)
	if out.unsync, err = c.runPhase(ctx, tr, root.id, "campaign.RunContext.unsync", uspec); err != nil {
		return out, err
	}
	rspec := c.spec(campaign.SchemeReunion, c.in.ReunionTrials, c.in.Seeds[v], rpath)
	if out.reunion, err = c.runPhase(ctx, tr, root.id, "campaign.RunContext.reunion", rspec); err != nil {
		return out, err
	}
	resumeSpec := uspec
	resumeSpec.Resume = true
	if out.resume, err = c.runPhase(ctx, tr, root.id, "campaign.RunContext.resume", resumeSpec); err != nil {
		return out, err
	}
	return out, c.check(v, out, uspec, rspec, upath, rpath)
}

// check verifies a round: every campaign ran all its trials, the
// resumed Result equals the fresh one, each Result equals
// AggregateRecords over its checkpoint, and each plane saw every
// record. The checkpoints are compared as record sets, never as bytes:
// with two workers they are journaled in completion order, which
// orderViolations reports.
func (c *campaignBench) check(v int, out roundOut, uspec, rspec campaign.Spec, upath, rpath string) error {
	k := &c.checks
	k.expect(out.unsync.res.Ran == uspec.Trials, "unsync: ran %d of %d trials", out.unsync.res.Ran, uspec.Trials)
	k.expect(out.reunion.res.Ran == rspec.Trials, "reunion: ran %d of %d trials", out.reunion.res.Ran, rspec.Trials)
	k.expect(reflect.DeepEqual(out.unsync.res, out.resume.res), "resumed Result differs from the fresh UnSync Result")
	k.expect(out.resume.frame.Done == uint64(uspec.Trials), "resume replayed %d records, want %d", out.resume.frame.Done, uspec.Trials)
	for _, p := range []phaseRun{out.unsync, out.reunion} {
		k.expect(p.frame.Done == uint64(p.res.Ran), "%s plane saw %d records, campaign ran %d", p.res.Scheme, p.frame.Done, p.res.Ran)
	}
	uj, err := scanJournal(upath, uspec.Trials)
	if err != nil {
		return err
	}
	checkAggregate(k, "unsync checkpoint", uspec, uj, out.unsync.res)
	rj, err := scanJournal(rpath, rspec.Trials)
	if err != nil {
		return err
	}
	checkAggregate(k, "reunion checkpoint", rspec, rj, out.reunion.res)
	c.orderViolations = uj.inversions + rj.inversions
	c.replayRecords = out.resume.frame.Done
	c.journalBytes = uj.bytes
	d, err := digest([]campaign.Result{out.unsync.res, out.reunion.res})
	if err != nil {
		return err
	}
	c.digests.check(k, v, d, "campaign")
	return nil
}

func (c *campaignBench) warm(ctx context.Context) error {
	_, err := c.round(ctx, nil)
	return err
}

func (c *campaignBench) run(ctx context.Context, until time.Time, tr *tracer) (phase, error) {
	var ph phase
	c.stats = &campaign.BatchStats{}
	var per [3][]float64 // per-round rates of the three phases
	c.allocBytes = 0
	for first := true; first || clockNow().Before(until); first = false {
		runtime.GC() // start every operation from the same heap state
		failed := c.checks.failedCount()
		out, err := c.round(ctx, tr)
		// A round's latency is its three campaign calls, not the
		// journal clean-up and checks around them.
		d := out.unsync.took + out.reunion.took + out.resume.took
		ph.attempted++
		if err != nil {
			c.checks.fail(err)
		}
		if err != nil || c.checks.failedCount() != failed {
			ph.failed++
			continue
		}
		work := 0
		for i, p := range []phaseRun{out.unsync, out.reunion, out.resume} {
			per[i] = append(per[i], float64(p.res.Ran)/p.took.Seconds())
			work += p.res.Ran
		}
		ph.work += float64(work)
		ph.rates = append(ph.rates, float64(work)/d.Seconds())
		ph.lat = append(ph.lat, float64(d)/1e6)
		ph.elapsed += d.Seconds()
	}
	c.allocPerTrial = ratio(float64(c.allocBytes), ph.work)
	ph.named = map[string]metric{}
	for i, name := range []string{"unsync_trials_per_s", "reunion_trials_per_s", "resume_trials_per_s"} {
		ph.named[name] = metric{Value: median(per[i]), Unit: "1/s"}
	}
	return ph, nil
}

// layers measures the campaign layers with direct calls: the golden
// run, the batch kernels through campaign.RunShard with a discarding
// emit (no journal, no plane), and Plane.Observe alone.
func (c *campaignBench) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	root := tr.begin(0, "layers")
	defer root.end()
	maxSteps := campaign.Spec{}.Normalized().MaxSteps
	var golden []float64
	for i := 0; i < 5; i++ {
		sp := tr.begin(root.id, "fault.Golden")
		if _, err := fault.Golden(c.prog, maxSteps); err != nil {
			return err
		}
		golden = append(golden, float64(sp.end())/1e6)
	}
	m["fault.golden_ms"] = median(golden)

	for _, k := range []struct {
		scheme string
		trials int
	}{{campaign.SchemeUnSync, c.in.UnSyncTrials}, {campaign.SchemeReunion, c.in.ReunionTrials}} {
		spec := c.spec(k.scheme, k.trials, c.in.Seeds[0], "")
		spec.Stats = nil
		n := 0
		sp := tr.begin(root.id, "campaign.RunShard."+k.scheme)
		err := campaign.RunShard(ctx, c.prog, spec, 0, k.trials, nil, func(campaign.TrialRecord) error {
			n++
			return nil
		})
		took := sp.end()
		if err != nil {
			return err
		}
		c.checks.expect(n == k.trials, "RunShard %s emitted %d of %d records", k.scheme, n, k.trials)
		m["campaign.kernel_trials_per_s."+k.scheme] = ratio(float64(n), took.Seconds())
	}

	lanes := float64(c.stats.Lanes())
	m["campaign.lanes_retired_frac"] = ratio(float64(c.stats.Retired()), lanes)
	m["campaign.lanes_shortcut_frac"] = ratio(float64(c.stats.Shortcut()), lanes)

	uj, err := scanJournal(filepath.Join(c.dir, "unsync.jsonl"), c.in.UnSyncTrials)
	if err != nil {
		return err
	}
	var observe []float64
	for i := 0; i < 5; i++ {
		plane, err := stream.NewPlane(stream.PlaneConfig{EmitEvery: 100 * time.Millisecond})
		if err != nil {
			return err
		}
		sp := tr.begin(root.id, "stream.Plane.Observe")
		for _, rec := range uj.recs {
			plane.Observe(*rec)
		}
		took := sp.end()
		if err := plane.Close(); err != nil {
			return err
		}
		observe = append(observe, ratio(float64(took.Nanoseconds()), float64(len(uj.recs))))
	}
	m["stream.observe_ns_per_record"] = median(observe)
	m["campaign.journal_bytes_per_trial"] = ratio(float64(c.journalBytes), float64(c.in.UnSyncTrials))
	m["campaign.replay_records"] = float64(c.replayRecords)
	m["campaign.alloc_bytes_per_trial"] = c.allocPerTrial
	m["campaign.journal_order_violations"] = float64(c.orderViolations)
	return nil
}

func (c *campaignBench) report() map[string]any {
	return c.checks.report(map[string]any{
		"digests":                  c.digests,
		"rounds":                   c.rounds,
		"journal_order_violations": c.orderViolations,
	})
}

func (c *campaignBench) close() error { return nil }
