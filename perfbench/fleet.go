package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fabric"
	"github.com/cmlasu/unsync/internal/serve"
)

// fleetBench runs distributed campaigns through the fabric coordinator
// against in-process serve workers on loopback.
type fleetBench struct {
	in        fleetInputs
	dir       string
	nodes     []*node
	transport *http.Transport
	client    *http.Client
	params    []serve.CampaignParams // one per input variant
	prog      *asm.Program
	spec      campaign.Spec // of variant 0; variants differ only in Seed

	checks  checks
	digests variantDigests
	runs    int

	// Coordinator counters summed over the latest run.
	snap         fabric.Snapshot
	trials       int
	journalBytes int64
}

func prepareFleet(seed uint64) (any, func(ctx context.Context, dir string) (instance, error), error) {
	in := genFleet(seed)
	var params []serve.CampaignParams
	for _, s := range in.Seeds {
		p := serve.CampaignParams{Prog: in.Prog, Trials: in.Trials, Seed: s, Workers: in.WorkersOnNode}
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
		params = append(params, p)
	}
	return in, func(ctx context.Context, dir string) (instance, error) {
		prog, err := params[0].Program()
		if err != nil {
			return nil, err
		}
		f := &fleetBench{in: in, dir: dir, params: params, prog: prog, spec: params[0].Spec().Normalized(), digests: newVariantDigests()}
		// One connection per worker node: the coordinator holds one
		// lease stream per node at a time.
		f.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, ResponseHeaderTimeout: time.Minute}
		f.client = &http.Client{Transport: f.transport}
		for i := 0; i < in.Nodes; i++ {
			n, err := startNode(ctx, serve.Config{StateDir: filepath.Join(dir, fmt.Sprintf("node%d", i)), EnableShards: true}, f.client)
			if err != nil {
				return nil, errors.Join(err, f.close())
			}
			f.nodes = append(f.nodes, n)
		}
		return f, nil
	}, nil
}

func (f *fleetBench) urls() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.url
	}
	return out
}

// op runs the next input variant's distributed campaign and checks the
// merged journal. The returned duration covers the coordinator only,
// not the benchmark's checks.
func (f *fleetBench) op(ctx context.Context, tr *tracer) (campaign.Result, time.Duration, error) {
	v := f.runs % len(f.params)
	f.runs++
	spec := f.params[v].Spec().Normalized()
	jpath := filepath.Join(f.dir, "coordinator.jsonl")
	mpath := filepath.Join(f.dir, "merged.jsonl")
	for _, p := range []string{jpath, mpath} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return campaign.Result{}, 0, err
		}
	}
	root := tr.begin(0, "op")
	defer root.end()
	t0 := clockNow()
	c, err := fabric.New(fabric.Config{
		Workers: f.urls(),
		Params:  f.params[v],
		Journal: jpath,
		Merged:  mpath,
		Client:  f.client,
	})
	if err != nil {
		return campaign.Result{}, 0, err
	}
	sp := tr.begin(root.id, "fabric.Coordinator.Run")
	res, err := c.Run(ctx)
	sp.end()
	took := since(t0)
	if err != nil {
		return res, took, err
	}
	snap := c.Snapshot()
	f.snap.Leases += snap.Leases
	f.snap.Splits += snap.Splits
	f.snap.Duplicates += snap.Duplicates
	f.snap.Failures += snap.Failures
	f.trials += spec.Trials
	if info, err := os.Stat(jpath); err == nil {
		f.journalBytes += info.Size()
	}

	k := &f.checks
	k.expect(res.Ran == spec.Trials, "fleet ran %d of %d trials", res.Ran, spec.Trials)
	js, err := scanJournal(mpath, spec.Trials)
	if err != nil {
		return res, took, err
	}
	k.expect(js.inversions == 0, "merged journal has %d index inversions", js.inversions)
	checkAggregate(k, "merged journal", spec, js, res)
	merged, err := os.ReadFile(mpath)
	if err != nil {
		return res, took, err
	}
	d, err := digest(map[string]any{"result": res, "merged": merged})
	if err != nil {
		return res, took, err
	}
	f.digests.check(k, v, d, "fleet")
	return res, took, nil
}

func (f *fleetBench) warm(ctx context.Context) error {
	_, _, err := f.op(ctx, nil)
	return err
}

func (f *fleetBench) run(ctx context.Context, until time.Time, tr *tracer) (phase, error) {
	var ph phase
	f.snap, f.trials, f.journalBytes = fabric.Snapshot{}, 0, 0
	for first := true; first || clockNow().Before(until); first = false {
		runtime.GC() // start every operation from the same heap state
		failed := f.checks.failedCount()
		res, d, err := f.op(ctx, tr)
		ph.attempted++
		if err != nil {
			f.checks.fail(err)
		}
		if err != nil || f.checks.failedCount() != failed {
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, float64(d)/1e6)
		ph.rates = append(ph.rates, float64(res.Ran)/d.Seconds())
		ph.work += float64(res.Ran)
		ph.elapsed += d.Seconds()
	}
	ph.named = map[string]metric{"fleet_trials_per_s": {Value: median(ph.rates), Unit: "1/s"}}
	return ph, nil
}

// layers splits the fleet's ingest ceiling: producing records
// (campaign.RunShard alone), carrying them (one shard stream drained to
// io.Discard) and decoding them (ShardLine unmarshal).
func (f *fleetBench) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	root := tr.begin(0, "layers")
	defer root.end()
	n := 0
	sp := tr.begin(root.id, "campaign.RunShard")
	err := campaign.RunShard(ctx, f.prog, f.spec, 0, f.spec.Trials, nil, func(campaign.TrialRecord) error {
		n++
		return nil
	})
	took := sp.end()
	if err != nil {
		return err
	}
	f.checks.expect(n == f.spec.Trials, "RunShard emitted %d of %d records", n, f.spec.Trials)
	m["fleet.produce_trials_per_s"] = ratio(float64(n), took.Seconds())

	key := f.spec.Key(campaign.ProgHash(f.prog))
	body, err := json.Marshal(serve.ShardRequest{Campaign: f.params[0], Lo: 0, Hi: f.spec.Trials, Key: key})
	if err != nil {
		return err
	}
	sp = tr.begin(root.id, "POST /api/v1/shards")
	if _, err := f.shard(ctx, body, io.Discard); err != nil {
		return err
	}
	m["fleet.stream_trials_per_s"] = ratio(float64(f.spec.Trials), sp.end().Seconds())

	var buf bytes.Buffer
	if _, err := f.shard(ctx, body, &buf); err != nil {
		return err
	}
	sp = tr.begin(root.id, "decode serve.ShardLine")
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	recs := 0
	for sc.Scan() {
		var line serve.ShardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return err
		}
		if line.Rec != nil {
			recs++
		}
	}
	decode := sp.end()
	if err := sc.Err(); err != nil {
		return err
	}
	f.checks.expect(recs == f.spec.Trials, "shard stream carried %d of %d records", recs, f.spec.Trials)
	m["fleet.decode_ns_per_record"] = ratio(float64(decode.Nanoseconds()), float64(recs))

	m["fabric.leases"] = float64(f.snap.Leases)
	m["fabric.splits"] = float64(f.snap.Splits)
	m["fabric.duplicates"] = float64(f.snap.Duplicates)
	m["fabric.failures"] = float64(f.snap.Failures)
	m["fabric.useful_frac"] = ratio(float64(f.trials), float64(f.trials)+float64(f.snap.Duplicates))
	m["fabric.journal_bytes_per_trial"] = ratio(float64(f.journalBytes), float64(f.trials))
	return nil
}

// shard posts one shard request to the first node and copies the
// response stream to w.
func (f *fleetBench) shard(ctx context.Context, body []byte, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.nodes[0].url+"/api/v1/shards", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("shard stream: %s", resp.Status)
	}
	return io.Copy(w, resp.Body)
}

func (f *fleetBench) report() map[string]any {
	return f.checks.report(map[string]any{"digests": f.digests, "runs": f.runs})
}

func (f *fleetBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	for _, n := range f.nodes {
		err = errors.Join(err, n.stop(ctx))
	}
	f.transport.CloseIdleConnections()
	return err
}
