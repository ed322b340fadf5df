package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/cmlasu/unsync/internal/cmp"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/experiments"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/sweep"
	"github.com/cmlasu/unsync/internal/trace"
)

// figuresBench runs Fig 4, Fig 5, Fig 6 and the SER sweep through
// experiments.* at one reduced operating point.
type figuresBench struct {
	in     figuresInputs
	sets   []profileSet // one per input variant
	points []sweep.Pair[int, uint64]
	rc     cmp.RunConfig

	checks  checks
	digests variantDigests
	// insts is the first operation's simulated instruction count; every
	// variant simulates the same count.
	insts uint64
	ops   int
	// layerDigest digests the per-layer pass's cmp results.
	layerDigest string
}

// profileSet is the reseeded benchmark profiles of one input variant.
type profileSet struct{ fig4, fig5, fig6 []trace.Profile }

func prepareFigures(seed uint64) (any, func(ctx context.Context, dir string) (instance, error), error) {
	in := genFigures(seed)
	return in, func(ctx context.Context, dir string) (instance, error) {
		f := &figuresBench{in: in, digests: newVariantDigests()}
		for _, key := range in.Variants {
			var set profileSet
			var err error
			if set.fig4, err = profiles(in.Fig4, key); err != nil {
				return nil, err
			}
			if set.fig5, err = profiles(in.Fig5, key); err != nil {
				return nil, err
			}
			if set.fig6, err = profiles(in.Fig6, key); err != nil {
				return nil, err
			}
			f.sets = append(f.sets, set)
		}
		for _, p := range in.Fig5Points {
			f.points = append(f.points, sweep.Pair[int, uint64]{X: p.FI, Y: p.CmpLatency})
		}
		f.rc = cmp.DefaultRunConfig()
		f.rc.WarmupInsts = in.WarmupInsts
		f.rc.MeasureInsts = in.MeasureInsts
		if err := f.rc.Validate(); err != nil {
			return nil, err
		}
		return f, nil
	}, nil
}

// countingSource wraps the shared trace cache: it counts the records it
// hands out — one stream per simulated core, so the count is the
// instructions the sweep simulated — and, when traced, records a span
// around every cache lookup (which materializes the trace on a miss).
type countingSource struct {
	inner  cmp.CachedSource
	insts  atomic.Uint64
	tr     *tracer
	parent atomic.Int64
}

func (s *countingSource) Stream(p trace.Profile, n uint64) trace.Stream {
	s.insts.Add(n)
	sp := s.tr.begin(s.parent.Load(), "trace.Cache.Get")
	st := s.inner.Stream(p, n)
	sp.end()
	return st
}

// figureOutputs is everything one operation computes.
type figureOutputs struct {
	Fig4 experiments.Fig4Result
	Fig5 experiments.Fig5Result
	Fig6 experiments.Fig6Result
	SER  experiments.SERResult
}

// op runs the four studies on one input variant over one fresh trace
// cache, as one unsync-bench invocation would.
func (f *figuresBench) op(ctx context.Context, tr *tracer, set profileSet) (figureOutputs, uint64, error) {
	src := &countingSource{inner: cmp.NewCachedSource(trace.DefaultCacheBudget), tr: tr}
	o := experiments.Options{RC: f.rc, Benchmarks: set.fig4, Workers: f.in.Workers}
	o.RC.Source = src
	root := tr.begin(0, "op")
	defer root.end()
	var out figureOutputs
	call := func(name string, fn func() error) error {
		sp := tr.begin(root.id, name)
		src.parent.Store(sp.id)
		defer sp.end()
		return fn()
	}
	err := call("experiments.Fig4", func() (err error) {
		out.Fig4, err = experiments.Fig4(ctx, o)
		return err
	})
	if err == nil {
		err = call("experiments.Fig5", func() (err error) {
			out.Fig5, err = experiments.Fig5(ctx, o, set.fig5, f.points)
			return err
		})
	}
	if err == nil {
		err = call("experiments.Fig6", func() (err error) {
			out.Fig6, err = experiments.Fig6(ctx, o, set.fig6, f.in.Fig6Sizes)
			return err
		})
	}
	if err == nil {
		err = call("experiments.SERSweep", func() (err error) {
			out.SER, err = experiments.SERSweep(ctx, o)
			return err
		})
	}
	return out, src.insts.Load(), err
}

// check verifies one operation's outputs: the right shape, the same
// digest as the variant's first operation, and the same instruction
// count as every operation.
func (f *figuresBench) check(variant int, out figureOutputs, insts uint64) bool {
	c := &f.checks
	ok := c.expect(len(out.Fig4.Rows) == len(f.in.Fig4), "fig4: %d rows, want %d", len(out.Fig4.Rows), len(f.in.Fig4))
	ok = c.expect(len(out.Fig5.Points) == len(f.points), "fig5: %d points, want %d", len(out.Fig5.Points), len(f.points)) && ok
	ok = c.expect(len(out.Fig6.Points) == len(f.in.Fig6Sizes), "fig6: %d points, want %d", len(out.Fig6.Points), len(f.in.Fig6Sizes)) && ok
	ok = c.expect(len(out.SER.Injected) > 0 && out.SER.ErrorFreeUnSync > 0 && out.SER.ErrorFreeReunion > 0,
		"ser: missing error-free IPC or injected points") && ok
	d, err := digest(out)
	if err != nil {
		c.fail(fmt.Errorf("digest figure results: %w", err))
		return false
	}
	ok = f.digests.check(c, variant, d, "figures") && ok
	if f.insts == 0 {
		f.insts = insts
	}
	return c.expect(insts == f.insts && insts > 0, "simulated %d instructions, first operation %d", insts, f.insts) && ok
}

// next runs the next operation, cycling through the input variants,
// and checks it. The returned duration covers the four studies only,
// not the benchmark's checks.
func (f *figuresBench) next(ctx context.Context, tr *tracer) (uint64, time.Duration, bool) {
	v := f.ops % len(f.sets)
	f.ops++
	t0 := clockNow()
	out, insts, err := f.op(ctx, tr, f.sets[v])
	took := since(t0)
	if err != nil {
		f.checks.fail(err)
		return 0, took, false
	}
	return insts, took, f.check(v, out, insts)
}

func (f *figuresBench) warm(ctx context.Context) error {
	f.next(ctx, nil)
	return nil
}

func (f *figuresBench) run(ctx context.Context, until time.Time, tr *tracer) (phase, error) {
	var ph phase
	for first := true; first || clockNow().Before(until); first = false {
		runtime.GC() // start every operation from the same heap state
		insts, d, ok := f.next(ctx, tr)
		ph.attempted++
		if !ok {
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, float64(d)/1e6)
		ph.rates = append(ph.rates, float64(insts)/d.Seconds())
		ph.work += float64(insts)
		ph.elapsed += d.Seconds()
	}
	ph.named = map[string]metric{"sim_insts_per_s": {Value: median(ph.rates), Unit: "1/s"}}
	return ph, nil
}

// simJob is one cmp run of the sweep, as the per-layer pass replays it.
type simJob struct {
	label  string
	scheme cmp.Scheme
	prof   trace.Profile
	rc     cmp.RunConfig
	plan   cmp.FaultPlan
}

// jobs lists the cmp runs the four studies make at this operating
// point: the baselines and scheme runs of Fig 4, the Reunion (FI,
// latency) points of Fig 5, the CB sizes of Fig 6, and the error-free
// and injected runs of the SER sweep.
func (f *figuresBench) jobs(set profileSet) []simJob {
	var js []simJob
	add := func(label string, s cmp.Scheme, p trace.Profile, rc cmp.RunConfig, plan cmp.FaultPlan) {
		js = append(js, simJob{label: label, scheme: s, prof: p, rc: rc, plan: plan})
	}
	none := cmp.FaultPlan{}
	for _, p := range set.fig4 {
		add("baseline", cmp.Baseline, p, f.rc, none)
		add("unsync", cmp.UnSync, p, f.rc, none)
		add("reunion", cmp.Reunion, p, f.rc, none)
	}
	for _, p := range set.fig5 {
		add("baseline", cmp.Baseline, p, f.rc, none)
		for _, pt := range f.points {
			rc := f.rc
			rc.Reunion.FI, rc.Reunion.CompareLatency, rc.Reunion.CSBEntries = pt.X, pt.Y, 0
			add("reunion", cmp.Reunion, p, rc, none)
		}
	}
	for _, p := range set.fig6 {
		add("baseline", cmp.Baseline, p, f.rc, none)
		for _, n := range f.in.Fig6Sizes {
			rc := f.rc
			rc.UnSync.CBEntries = n
			add("unsync", cmp.UnSync, p, rc, none)
		}
	}
	for _, p := range set.fig4 {
		add("unsync", cmp.UnSync, p, f.rc, none)
		add("reunion", cmp.Reunion, p, f.rc, none)
	}
	for _, rate := range f.in.SERRates {
		plan := cmp.FaultPlan{SER: fault.SER{PerInst: rate}, Seed: f.in.SERSeed}
		add("unsync.injected", cmp.UnSync, set.fig4[0], f.rc, plan)
		add("reunion.injected", cmp.Reunion, set.fig4[0], f.rc, plan)
	}
	return js
}

// layers replays the sweep's cmp runs of the first input variant with
// the benchmark's own calls: materialize each trace once, then run
// every job on two workers with a span per cmp run.
func (f *figuresBench) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	set := f.sets[0]
	root := tr.begin(0, "layers")
	defer root.end()
	cache := cmp.NewCachedSource(trace.DefaultCacheBudget)
	seen := map[string]bool{}
	var materialize time.Duration
	var records uint64
	for _, group := range [][]trace.Profile{set.fig4, set.fig5, set.fig6} {
		for _, p := range group {
			key := fmt.Sprintf("%s/%d", p.Name, p.Seed)
			if seen[key] {
				continue
			}
			seen[key] = true
			sp := tr.begin(root.id, "trace.materialize")
			mat := cache.Cache.Get(p, f.rc.TotalInsts())
			materialize += sp.end()
			records += mat.Len()
		}
	}
	m["trace.materialize_s"] = materialize.Seconds()
	m["trace.records"] = float64(records)

	type jobOut struct {
		res   cmp.Result
		host  time.Duration
		insts uint64
	}
	jobs := f.jobs(set)
	alloc := allocatedBytes()
	sw := tr.begin(root.id, "sweep.MapContext")
	outs, err := sweep.MapContext(ctx, jobs, f.in.Workers, func(ctx context.Context, j simJob) (jobOut, error) {
		src := &countingSource{inner: cache}
		j.rc.Source = src
		sp := tr.begin(sw.id, "cmp."+j.label)
		res, err := cmp.RunInjectedContext(ctx, j.scheme, j.rc, j.prof, j.plan)
		return jobOut{res: res, host: sp.end(), insts: src.insts.Load()}, err
	})
	wall := sw.end()
	alloc = allocatedBytes() - alloc
	if err != nil {
		return err
	}

	host := map[string]time.Duration{}
	insts := map[string]uint64{}
	var busy time.Duration
	var total, cycles, committed uint64
	partitioned := 0
	for i, o := range outs {
		j := jobs[i]
		host[j.label] += o.host
		insts[j.label] += o.insts
		busy += o.host
		total += o.insts
		cycles += o.res.Cycles
		committed += o.res.Insts
		if err := slotPartition(o.res, j.rc.Core.Width); err != nil {
			f.checks.fail(fmt.Errorf("%s %s: %w", j.label, j.prof.Name, err))
			continue
		}
		partitioned++
	}
	for label, d := range host {
		m["cmp."+label+".host_ns_per_sim_inst"] = ratio(float64(d.Nanoseconds()), float64(insts[label]))
	}
	m["cmp.sim_cycles"] = float64(cycles)
	m["cmp.sim_insts"] = float64(committed)
	m["cmp.alloc_bytes_per_sim_inst"] = ratio(float64(alloc), float64(total))
	m["cmp.slot_partition_runs"] = float64(partitioned)
	m["sweep.busy_frac"] = ratio(busy.Seconds(), wall.Seconds()*float64(f.in.Workers))
	results := make([]cmp.Result, len(outs))
	for i, o := range outs {
		results[i] = o.res
	}
	f.layerDigest, err = digest(results)
	return err
}

// slotPartition checks the topdown identity of one run's measurement
// window: the four slot buckets partition TOPDOWN.SLOTS, which is the
// commit width times the window's cycles.
func slotPartition(res cmp.Result, width int) error {
	ev := res.Events
	slots := ev[events.TopdownSlots]
	sum := ev[events.TopdownRetiringSlots] + ev[events.TopdownFrontendSlots] +
		ev[events.TopdownBackendSlots] + ev[events.TopdownBadGateSlots]
	if want := uint64(width) * res.Core.Cycles; slots != want {
		return fmt.Errorf("TOPDOWN.SLOTS %d, want width %d x cycles %d = %d", slots, width, res.Core.Cycles, want)
	}
	if sum != slots {
		return fmt.Errorf("slot buckets sum to %d, want TOPDOWN.SLOTS %d", sum, slots)
	}
	return nil
}

func (f *figuresBench) report() map[string]any {
	return f.checks.report(map[string]any{
		"digests":      f.digests,
		"layer_digest": f.layerDigest,
		"sim_insts":    f.insts,
		"operations":   f.ops,
	})
}

func (f *figuresBench) close() error { return nil }
