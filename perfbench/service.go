package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/resilience"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// node is one in-process serve.Server behind a loopback http.Server.
type node struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	wg       sync.WaitGroup
	serveErr error // set by the serve goroutine before wg.Done
}

// startNode builds a server over dir and starts serving it on a fresh
// loopback port.
func startNode(ctx context.Context, cfg serve.Config, client *http.Client) (*node, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(ctx))
	}
	n := &node{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveErr = n.hs.Serve(ln)
	}()
	// The listener is already accepting, so one probe suffices.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return nil, errors.Join(err, n.stop(ctx))
	}
	resp, err := client.Do(req)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, n.stop(ctx))
	}
	return n, nil
}

// stop shuts the HTTP server down, drains the job server and waits for
// the serve goroutine to exit.
func (n *node) stop(ctx context.Context) error {
	err := n.hs.Shutdown(ctx)
	n.wg.Wait()
	if !errors.Is(n.serveErr, http.ErrServerClosed) {
		err = errors.Join(err, n.serveErr)
	}
	return errors.Join(err, n.srv.Drain(ctx))
}

// serviceBench drives unsync-serve's HTTP API in a closed loop: each
// client submits a small campaign job, follows its SSE progress to the
// final frame, fetches the job, and only then submits the next.
type serviceBench struct {
	in        serviceInputs
	node      *node
	transport *http.Transport
	client    *http.Client
	next      atomic.Int64 // next job index

	checks checks
	digest string

	// Per-job phase timings of the latest run, ms.
	mu                               sync.Mutex
	submitMS, waitMS, runMS, fetchMS []float64
	shed                             int
	jobs                             int
	refetches                        int
}

func prepareService(seed uint64) (any, func(ctx context.Context, dir string) (instance, error), error) {
	in := genService(seed)
	return in, func(ctx context.Context, dir string) (instance, error) {
		// At most two client connections: one per closed-loop client.
		tr := &http.Transport{MaxConnsPerHost: in.Clients, MaxIdleConnsPerHost: in.Clients}
		client := &http.Client{Transport: tr}
		n, err := startNode(ctx, serve.Config{StateDir: dir}, client)
		if err != nil {
			tr.CloseIdleConnections()
			return nil, err
		}
		return &serviceBench{in: in, node: n, transport: tr, client: client}, nil
	}, nil
}

// jobTiming splits one job's latency at the protocol steps.
type jobTiming struct {
	submit, wait, running, fetch time.Duration
}

// job runs job k end to end and checks its output.
func (s *serviceBench) job(ctx context.Context, k int, tr *tracer) (campaign.Result, jobTiming, error) {
	var tm jobTiming
	prog, seed := s.in.job(k)
	req := serve.JobRequest{Kind: serve.KindCampaign, Campaign: &serve.CampaignParams{
		Prog: prog, Scheme: s.in.Scheme, Trials: s.in.Trials[prog], Seed: seed, Workers: s.in.Workers,
	}}
	body, err := json.Marshal(req)
	if err != nil {
		return campaign.Result{}, tm, err
	}
	root := tr.begin(0, "op")
	defer root.end()

	sp := tr.begin(root.id, "serve.submit")
	t0 := clockNow()
	var job serve.Job
	status, err := s.do(ctx, http.MethodPost, "/api/v1/jobs", body, &job)
	tm.submit = since(t0)
	sp.end()
	if err != nil {
		return campaign.Result{}, tm, err
	}
	if status != http.StatusAccepted {
		if status == http.StatusTooManyRequests {
			s.mu.Lock()
			s.shed++
			s.mu.Unlock()
		}
		return campaign.Result{}, tm, fmt.Errorf("submit job %d: status %d", k, status)
	}

	final, err := s.follow(ctx, job.ID, tr, root.id, &tm)
	if err != nil {
		return campaign.Result{}, tm, err
	}

	sp = tr.begin(root.id, "serve.fetch")
	t1 := clockNow()
	err = s.fetch(ctx, &job)
	tm.fetch = since(t1)
	sp.end()
	if err != nil {
		return campaign.Result{}, tm, err
	}
	var res campaign.Result
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return res, tm, fmt.Errorf("job %s result: %w", job.ID, err)
	}
	if res.Ran != s.in.Trials[prog] {
		return res, tm, fmt.Errorf("job %s ran %d of %d trials", job.ID, res.Ran, s.in.Trials[prog])
	}
	if err := frameMatches(final, res); err != nil {
		return res, tm, fmt.Errorf("job %s: %w", job.ID, err)
	}
	return res, tm, nil
}

// errNotTerminal marks a fetched job that has not reached a terminal
// state yet.
var errNotTerminal = errors.New("job not terminal yet")

// fetchBackoff paces re-fetches of a job still marked running: the
// server publishes the final progress frame when the campaign ends,
// just before it journals the job done, so a fetch can land between
// the two.
var fetchBackoff = resilience.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond, Attempts: 20}

// fetch gets the job until it is done, re-fetching while it is still
// running.
func (s *serviceBench) fetch(ctx context.Context, job *serve.Job) error {
	id := job.ID
	attempt := 0
	err := resilience.Retry(ctx, fetchBackoff, func(ctx context.Context) error {
		if attempt++; attempt > 1 {
			s.mu.Lock()
			s.refetches++
			s.mu.Unlock()
		}
		status, err := s.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, job)
		switch {
		case err != nil:
			return resilience.Permanent(err)
		case status != http.StatusOK:
			return resilience.Permanent(fmt.Errorf("fetch job %s: status %d", id, status))
		case job.State == serve.StateRunning:
			return errNotTerminal
		case job.State != serve.StateDone:
			return resilience.Permanent(fmt.Errorf("job %s ended %s: %s", id, job.State, job.Error))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fetch job %s: %w", id, err)
	}
	return nil
}

// follow reads the job's SSE progress stream to its final frame.
func (s *serviceBench) follow(ctx context.Context, id string, tr *tracer, parent int64, tm *jobTiming) (stream.Frame, error) {
	sp := tr.begin(parent, "serve.start_wait")
	t0 := clockNow()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.node.url+"/api/v1/jobs/"+id+"/progress", nil)
	if err != nil {
		return stream.Frame{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return stream.Frame{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return stream.Frame{}, fmt.Errorf("progress %s: %s", id, resp.Status)
	}
	var run spanRef
	var t1 time.Time
	sc := bufio.NewScanner(resp.Body)
	for frames := 0; sc.Scan(); {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var fr stream.Frame
		if err := json.Unmarshal([]byte(data), &fr); err != nil {
			return fr, fmt.Errorf("progress %s frame: %w", id, err)
		}
		if frames++; frames == 1 {
			t1 = clockNow()
			tm.wait = t1.Sub(t0)
			sp.end()
			run = tr.begin(parent, "serve.run")
		}
		if fr.Final {
			tm.running = since(t1)
			run.end()
			return fr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return stream.Frame{}, err
	}
	return stream.Frame{}, fmt.Errorf("progress %s: stream ended without a final frame", id)
}

// do issues one JSON request and decodes a JSON response into out when
// the status is 2xx.
func (s *serviceBench) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.node.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// warm runs the first block of jobs — one per library program — and
// digests their Results in job order.
func (s *serviceBench) warm(ctx context.Context) error {
	var results []campaign.Result
	for k := range serviceProgs() {
		res, _, err := s.job(ctx, k, nil)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	s.next.Store(int64(len(results)))
	var err error
	s.digest, err = digest(results)
	return err
}

func (s *serviceBench) run(ctx context.Context, until time.Time, tr *tracer) (phase, error) {
	var ph phase
	s.mu.Lock()
	s.submitMS, s.waitMS, s.runMS, s.fetchMS, s.shed = nil, nil, nil, nil, 0
	s.mu.Unlock()
	start := clockNow()
	var wg sync.WaitGroup
	for c := 0; c < s.in.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || clockNow().Before(until); first = false {
				k := int(s.next.Add(1) - 1)
				t0 := clockNow()
				_, tm, err := s.job(ctx, k, tr)
				d := since(t0)
				s.checks.expect(err == nil, "%v", err)
				s.mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
				} else {
					ph.lat = append(ph.lat, float64(d)/1e6)
					ph.work++
					s.submitMS = append(s.submitMS, ms(tm.submit))
					s.waitMS = append(s.waitMS, ms(tm.wait))
					s.runMS = append(s.runMS, ms(tm.running))
					s.fetchMS = append(s.fetchMS, ms(tm.fetch))
				}
				s.jobs++
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = since(start).Seconds()
	t := tailOf(ph.lat)
	ph.named = map[string]metric{
		"job_latency_p50_ms":          {Value: median(ph.lat), Unit: "ms"},
		"job_latency_tail_ms":         {Value: t.Value, Unit: "ms"},
		"job_latency_tail_percentile": {Value: t.Percentile, Unit: "%"},
		"job_latency_samples":         {Value: float64(t.Samples), Unit: "count"},
		"jobs_per_s":                  {Value: ratio(ph.work, ph.elapsed), Unit: "1/s"},
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s *serviceBench) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["serve.submit_ms"] = median(s.submitMS)
	m["serve.start_wait_ms"] = median(s.waitMS)
	m["serve.run_ms"] = median(s.runMS)
	m["serve.fetch_ms"] = median(s.fetchMS)
	m["serve.shed"] = float64(s.shed)
	return nil
}

func (s *serviceBench) report() map[string]any {
	s.mu.Lock()
	jobs, refetches := s.jobs, s.refetches
	s.mu.Unlock()
	return s.checks.report(map[string]any{"digest": s.digest, "jobs": jobs, "refetches_of_running_jobs": refetches})
}

func (s *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.node.stop(ctx)
	s.transport.CloseIdleConnections()
	return err
}
