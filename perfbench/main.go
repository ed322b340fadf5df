// Command perfbench is the repository benchmark. It drives one workload
// in one process, measures it for a fixed time, checks every output,
// and prints one JSON result object as the last line of standard
// output:
//
//	perfbench -workload <figures|campaign|service|fleet> -seed <n> -seconds <s> -trace <0|1> -out <dir>
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) spends half its time untraced and half traced — spans
// around the benchmark's calls into each layer plus a CPU profile
// folded by leaf package — then runs the per-layer probes, and reports
// the per-layer metrics together with the tracing overhead. The line
// before the result is a report object with provenance, the generated
// inputs, the workload's named metrics, output digests and checks.
// Spans are written to the -out directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// clockNow is the benchmark's one wall clock. It times operations and
// set-up; no simulated or checked output depends on it.
//
//unsync:allow-wallclock benchmark timing only; never feeds a checked output
var clockNow = time.Now

func since(t time.Time) time.Duration { return clockNow().Sub(t) }

// module is the import path prefix of the layers the CPU profile folds.
const module = "github.com/cmlasu/unsync"

// Set-up is everything before the first timed operation: generating
// the program state, starting servers, and one cold warm-up operation,
// so work moved out of the timed operations into first use shows up in
// setup_s. A run sets its workload up at least minSetups times and
// until setupBudget has passed (at most maxSetups times); setup_s is
// the median, so one slow start does not decide it.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 2 * time.Second
)

// phase is what one measured stretch of a workload did.
type phase struct {
	lat       []float64 // per-operation latency, ms
	rates     []float64 // per-operation work rate, 1/s (sequential workloads)
	work      float64   // work units completed
	elapsed   float64   // wall seconds
	attempted int
	failed    int
	// named holds the workload's paper-facing e2e metrics.
	named map[string]metric
}

// instance is one set-up workload.
type instance interface {
	// warm runs the first, cold operation(s), untimed, so caches fill
	// and lazy set-up finishes before timing starts.
	warm(ctx context.Context) error
	// run drives operations until the deadline (at least one each).
	run(ctx context.Context, until time.Time, tr *tracer) (phase, error)
	// layers runs the per-layer probes of a traced run and fills m.
	layers(ctx context.Context, tr *tracer, m map[string]float64) error
	// report returns output digests and check results so far.
	report() map[string]any
	close() error
}

// workload is one benchmark input mix.
type workload struct {
	name string
	// prepare generates the inputs from the seed and returns them with
	// the set-up function that builds an instance over them.
	prepare func(seed uint64) (any, func(ctx context.Context, dir string) (instance, error), error)
}

var workloads = []workload{
	{name: "figures", prepare: prepareFigures},
	{name: "campaign", prepare: prepareCampaign},
	{name: "service", prepare: prepareService},
	{name: "fleet", prepare: prepareFleet},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: figures, campaign, service or fleet")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for state files and spans")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, out string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	runDir := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	inputs, setup, err := wl.prepare(seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	heap := startHeapSampler(time.Millisecond, 250*time.Millisecond)
	defer heap.close()

	inst, setups, err := setUp(ctx, setup, runDir)
	if err != nil {
		return err
	}
	rep := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"provenance": provenance(),
		"inputs":     inputs,
		"units":      workloadUnits[name],
		"setups":     len(setups),
	}
	var res result
	if traced {
		var spans []span
		res, spans, err = measureLayers(ctx, inst, seconds, rep)
		if err == nil {
			spanFile := filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", name, seed))
			rep["span_file"] = spanFile
			rep["spans"] = summarize(spans)
			err = writeSpans(spanFile, spans)
		}
	} else {
		start := clockNow()
		var ph phase
		ph, err = inst.run(ctx, start.Add(dur(seconds)), nil)
		e2e := endToEnd(ph)
		e2e["setup_s"] = median(setups)
		e2e["live_heap_mb"] = heap.medianMB(start, clockNow())
		res = newResult(ph)
		for _, m := range e2eMetrics {
			res.Metrics[m.Name] = metric{Value: e2e[m.Name], Unit: m.Unit}
		}
		rep["named"] = ph.named
		rep["tail"] = tailOf(ph.lat)
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("tear-down: %w", cerr)
	}
	if err != nil {
		return err
	}

	checks := inst.report()
	rep["outputs"] = checks
	rep["peak_rss_mb"] = peakRSSMB()
	if bad, _ := checks["checks_failed"].(int); bad > 0 || res.Failed > 0 {
		res.Correct = false
	}
	b, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setUp builds the workload at least minSetups times, each with its
// cold warm-up operation, and keeps the last instance.
func setUp(ctx context.Context, setup func(context.Context, string) (instance, error), runDir string) (instance, []float64, error) {
	var inst instance
	var setups []float64
	began := clockNow()
	for i := 0; i < maxSetups && (i < minSetups || since(began) < setupBudget); i++ {
		t0 := clockNow()
		next, err := setup(ctx, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err == nil {
			if err = next.warm(ctx); err != nil {
				err = errors.Join(fmt.Errorf("warm-up: %w", err), next.close())
			}
		}
		setups = append(setups, since(t0).Seconds())
		if inst != nil {
			err = errors.Join(err, inst.close())
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		inst = next
	}
	return inst, setups, nil
}

// measureLayers is a traced run: half the time untraced, half with
// spans and a CPU profile, then the workload's per-layer probes. It
// returns the per-layer metrics and the spans.
func measureLayers(ctx context.Context, inst instance, seconds float64, rep map[string]any) (result, []span, error) {
	untraced, err := inst.run(ctx, clockNow().Add(dur(seconds/2)), nil)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	traced, err := inst.run(ctx, clockNow().Add(dur(seconds/2)), tr)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, nil, err
	}
	layers := map[string]float64{}
	if err := inst.layers(ctx, tr, layers); err != nil {
		return result{}, nil, fmt.Errorf("per-layer probes: %w", err)
	}
	byPkg, err := foldByPackage(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}
	byLayer := foldByLayer(module, byPkg)
	for _, l := range cpuLayers {
		layers[l+".cpu_frac"] = byLayer[l]
	}
	a, b := endToEnd(untraced), endToEnd(traced)
	for _, name := range traceOverhead {
		layers["overhead."+name] = ratio(b[name], a[name])
	}

	res := newResult(untraced)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	moves := map[string]string{}
	for _, m := range allLayerMetrics() {
		res.Metrics[m.Name] = metric{Value: finite(layers[m.Name]), Unit: m.Unit}
		moves[m.Name] = m.Moves
	}
	rep["moves"] = moves
	rep["named_untraced"] = untraced.named
	rep["named_traced"] = traced.named
	rep["cpu_by_package"] = byPkg
	return res, tr.spans(), nil
}

func newResult(ph phase) result {
	return result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// endToEnd derives the timing e2e metrics of one phase. Throughput is
// the median per-operation rate where operations run one at a time, so
// a transient stall of the host moves it no more than it moves the
// median latency.
func endToEnd(ph phase) map[string]float64 {
	tput := ratio(ph.work, ph.elapsed)
	if len(ph.rates) > 0 {
		tput = median(ph.rates)
	}
	return map[string]float64{
		"throughput_per_s": tput,
		"op_p50_ms":        median(ph.lat),
		"op_tail_ms":       tailOf(ph.lat).Value,
	}
}

// peakRSSMB is the process's peak resident set size. It is reported,
// not gated: how far garbage runs ahead of the collector moves it by
// tens of percent between identical runs.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance identifies the build and host a run measured.
func provenance() map[string]any {
	p := map[string]any{
		"revision":   "unknown",
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["revision"] = s.Value
			case "vcs.modified":
				p["modified"] = s.Value
			case "vcs.time":
				p["revision_time"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
