package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweepd"
	"repro/internal/workerd"
)

const (
	serviceExperiment = "fault-matrix"
	// hitSpecs completed jobs sit in the pre-built store; the open-loop
	// client resubmits them in turn.
	hitSpecs = 3
	// hitInterval paces the open-loop client (5 resubmissions/s).
	hitInterval = 200 * time.Millisecond
	// minJobs and minHits keep the service running past --seconds until
	// job_p50_ms (n >= 20) and hit_p90_ms (n >= 100) can be reported.
	minJobs = 20
	minHits = 100
	// setupReps is how many times a run starts (and drains) the service;
	// set-up time is their median and the last one is measured.
	setupReps = 5
	// drainTimeout matches sweepd.DefaultDrainTimeout, the daemon default.
	drainTimeout = sweepd.DefaultDrainTimeout
	freshSalt    = 0x66726573686a6f62 // "freshjob"
	hitSalt      = 0x6361636865686974 // "cachehit"
)

// freshSpec is the i-th job the closed-loop client submits; hitSpec the
// k-th completed job in the pre-built store. Both derive from the seed.
func freshSpec(seed uint64, i int) sweepd.JobSpec {
	return sweepd.JobSpec{Experiment: serviceExperiment, Quick: true, Seed: scenario.ReplicateSeed(seed^freshSalt, i)}
}

func hitSpec(seed uint64, k int) sweepd.JobSpec {
	return sweepd.JobSpec{Experiment: serviceExperiment, Quick: true, Seed: scenario.ReplicateSeed(seed^hitSalt, k)}
}

// httpStats times every HTTP round trip the benchmark's clients and the
// worker make, by endpoint.
type httpStats struct {
	mu       sync.Mutex
	lat      map[string][]float64 // endpoint → round-trip ms
	calls    map[string]int       // who/endpoint → count
	refused  int                  // 429, 503, and lease-plane refusals
	granted  int                  // claims that granted slots
	dups     int                  // uploads acknowledged as duplicates
	uploaded int                  // uploads that delivered a new replicate
	tr       *tracer
}

func newHTTPStats(tr *tracer) *httpStats {
	return &httpStats{lat: map[string][]float64{}, calls: map[string]int{}, tr: tr}
}

func (s *httpStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat, s.calls = map[string][]float64{}, map[string]int{}
	s.refused, s.granted, s.dups, s.uploaded = 0, 0, 0, 0
}

// endpoint names a request by the API call it makes.
func endpoint(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case len(parts) == 3 && parts[1] == "jobs":
		return "poll"
	case len(parts) == 4 && parts[1] == "jobs" && parts[3] == "result":
		return "result"
	case path == "/v1/leases/claim":
		return "claim"
	case len(parts) == 4 && parts[1] == "leases":
		switch parts[3] {
		case "renew":
			return "renew"
		case "results":
			return "upload"
		case "release":
			return "release"
		}
	}
	return "other"
}

type statsTransport struct {
	base http.RoundTripper
	who  string
	st   *httpStats
}

// RoundTrip times the request through to the last body byte, then hands the
// caller a buffered copy of the body.
func (t *statsTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.Method, req.URL.Path)
	ref := spanFrom(req.Context())
	sp := t.st.tr.start("http."+ep, ref.trace, ref.parent)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.finish()
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	sp.finish()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))

	s := t.st
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat[ep] = append(s.lat[ep], ms)
	s.calls[t.who+"/"+ep]++
	code := resp.StatusCode
	lease := ep == "claim" || ep == "renew" || ep == "upload" || ep == "release"
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		s.refused++
	case lease && code >= 300 && !(ep == "claim" && code == http.StatusNoContent):
		s.refused++
	case ep == "claim" && code == http.StatusOK:
		s.granted++
	case ep == "upload" && code == http.StatusOK:
		var ack sweepd.UploadResponse
		if json.Unmarshal(body, &ack) == nil && ack.Duplicate {
			s.dups++
		} else {
			s.uploaded++
		}
	}
	return resp, nil
}

func newClient(who string, st *httpStats) (*sweepd.Client, *http.Transport) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	return &sweepd.Client{HTTPClient: &http.Client{Transport: &statsTransport{base: tp, who: who, st: st}}}, tp
}

// service is one in-process coordinator (sweepd.Server over an fsynced
// store, on loopback HTTP) with one in-process workerd.Worker, all on
// shipped defaults.
type service struct {
	store      *sweepd.Store
	srv        *sweepd.Server
	hs         *http.Server
	url        string
	workerTP   *http.Transport
	stopWorker context.CancelFunc
	workerDone chan error
}

// startService opens the store in dir and starts server and worker. It
// returns how long sweepd.OpenStore (journal replay) took.
func startService(dir string, distribute bool, st *httpStats) (*service, time.Duration, error) {
	t := time.Now()
	store, err := sweepd.OpenStore(dir)
	open := time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, 0, err
	}
	s := &service{store: store, srv: sweepd.NewServer(store, sweepd.ServerOptions{Distribute: distribute})}
	s.srv.Start()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln)
	s.url = "http://" + ln.Addr().String()
	if distribute {
		var wc *sweepd.Client
		wc, s.workerTP = newClient("worker", st)
		w := workerd.New(workerd.Options{Coordinator: s.url, HTTPClient: wc.HTTPClient})
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWorker = cancel
		s.workerDone = make(chan error, 1)
		go func() { s.workerDone <- w.Run(ctx) }()
	}
	return s, open, nil
}

// stop soft-stops the worker, drains the server, closes HTTP and the store,
// and returns how long the server drain took.
func (s *service) stop() (time.Duration, error) {
	var errs []error
	if s.stopWorker != nil {
		s.stopWorker()
		if err := <-s.workerDone; err != nil {
			errs = append(errs, fmt.Errorf("worker: %w", err))
		}
		s.workerTP.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	t := time.Now()
	if err := s.srv.Drain(ctx); err != nil {
		errs = append(errs, err)
	}
	drain := time.Since(t)
	if err := s.hs.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := s.store.Close(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return drain, fmt.Errorf("stopping service: %v", errs)
	}
	return drain, nil
}

// buildPristine fills dir with the completed hit-spec jobs the measured
// server starts from, through a non-distributed server.
func buildPristine(dir string, seed uint64) error {
	s, _, err := startService(dir, false, nil)
	if err != nil {
		return err
	}
	c := &sweepd.Client{Base: s.url}
	ctx := context.Background()
	for k := 0; k < hitSpecs; k++ {
		st, err := c.Submit(ctx, hitSpec(seed, k))
		if err == nil {
			_, err = c.FetchResult(ctx, st.ID, 0)
		}
		if err != nil {
			s.stop()
			return fmt.Errorf("building store: %w", err)
		}
	}
	_, err = s.stop()
	return err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

func treeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runService measures the sweep service: a closed-loop client submitting
// fresh jobs and an open-loop client resubmitting completed ones.
func runService(e *env, r *result, win *window, tr *tracer) error {
	root, err := os.MkdirTemp(stateDir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	pristine := filepath.Join(root, "pristine")
	if err := buildPristine(pristine, e.seed); err != nil {
		return err
	}

	probes, err := probeInit(setupProbes)
	if err != nil {
		return fmt.Errorf("set-up probe: %w", err)
	}
	st := newHTTPStats(tr)
	var (
		svc    *service
		starts []float64
		opens  []float64
		drains []float64
		data   string
	)
	for i := 0; i < setupReps; i++ {
		data = filepath.Join(root, fmt.Sprintf("data-%d", i))
		if err := copyTree(pristine, data); err != nil {
			return err
		}
		sp := tr.start("service.start", "setup", 0)
		t := time.Now()
		s, open, err := startService(data, true, st)
		starts = append(starts, time.Since(t).Seconds())
		sp.finish()
		if err != nil {
			return err
		}
		opens = append(opens, msOf(open))
		if i == setupReps-1 {
			svc = s
			break
		}
		drain, err := s.stop()
		if err != nil {
			return err
		}
		drains = append(drains, msOf(drain))
	}
	r.set("setup_s", median(probes)+median(starts), len(starts))
	r.set("sweepd.store_open_ms", median(opens), len(opens))
	r.note("defaults: queue %d, server workers 1, sweep parallel GOMAXPROCS=%d, lease ttl %v, chunk %d, worker grace %v, worker poll %v, client poll %v",
		sweepd.DefaultQueueDepth, simWorkers(), sweepd.DefaultLeaseTTL, sweepd.DefaultLeaseChunk,
		sweepd.DefaultWorkerGrace, workerd.DefaultPoll, sweepd.DefaultPoll)
	r.note("closed loop: 1 client, fresh %s jobs; open loop: %d cached specs every %v", serviceExperiment, hitSpecs, hitInterval)

	jobsClient, jobsTP := newClient("jobs", st)
	jobsClient.Base = svc.url
	hitsClient, hitsTP := newClient("hits", st)
	hitsClient.Base = svc.url
	defer jobsTP.CloseIdleConnections()
	defer hitsTP.CloseIdleConnections()

	var (
		mu       sync.Mutex
		jobLat   []float64
		hitLat   []float64
		late     []float64
		nJobs    atomic.Int64
		nHits    atomic.Int64
		failures atomic.Int64
		attempts atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		mu.Lock()
		r.problem(format, args...)
		mu.Unlock()
	}
	ctx := context.Background()
	deadline := time.Duration(e.seconds) * time.Second
	hardStop := 3 * deadline
	var stopping atomic.Bool
	done := func() bool {
		el := time.Since(win.start)
		if el >= hardStop || (el >= deadline && nJobs.Load() >= minJobs && nHits.Load() >= minHits) {
			stopping.Store(true)
		}
		return stopping.Load()
	}

	st.reset()
	if err := win.begin(); err != nil {
		svc.stop()
		return err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // closed loop: fresh jobs, one at a time
		defer wg.Done()
		for i := 0; !done(); i++ {
			attempts.Add(1)
			trace := fmt.Sprintf("job-%d", i)
			sp := tr.start("job", trace, 0)
			jctx := withSpan(ctx, trace, sp.id())
			t := time.Now()
			js, err := jobsClient.Submit(jctx, freshSpec(e.seed, i))
			if err != nil {
				sp.finish()
				fail("job %d: submit: %v", i, err)
				continue
			}
			if js.Cached || js.Deduped {
				fail("job %d: fresh spec answered from cache", i)
			}
			raw, err := jobsClient.FetchResult(jctx, js.ID, 0)
			lat := msOf(time.Since(t))
			sp.finish()
			if err != nil {
				fail("job %d: %v", i, err)
				continue
			}
			if _, err := checkArtifact(raw); err != nil {
				fail("job %d: %v", i, err)
				continue
			}
			if e.seed == e.digests.Seed && i < len(e.digests.ServiceFresh) {
				if err := checkDigest(trace, e.digests.ServiceFresh[i], raw); err != nil {
					fail("%v", err)
					continue
				}
			}
			mu.Lock()
			jobLat = append(jobLat, lat)
			mu.Unlock()
			nJobs.Add(1)
		}
	}()
	go func() { // open loop: cached resubmissions on a fixed schedule
		defer wg.Done()
		first := make([][]byte, hitSpecs)
		for k := 0; !done(); k++ {
			due := win.start.Add(time.Duration(k) * hitInterval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, msOf(time.Since(due)))
			attempts.Add(1)
			trace := fmt.Sprintf("hit-%d", k)
			sp := tr.start("hit", trace, 0)
			hctx := withSpan(ctx, trace, sp.id())
			spec := k % hitSpecs
			hs, err := hitsClient.Submit(hctx, hitSpec(e.seed, spec))
			if err != nil {
				sp.finish()
				fail("hit %d: submit: %v", k, err)
				continue
			}
			if !hs.Cached {
				fail("hit %d: completed spec was not served from cache", k)
			}
			raw, err := hitsClient.FetchResult(hctx, hs.ID, 0)
			lat := msOf(time.Since(due))
			sp.finish()
			if err != nil {
				fail("hit %d: %v", k, err)
				continue
			}
			if first[spec] == nil {
				a, err := checkArtifact(raw)
				if err == nil && e.seed == e.digests.Seed && spec < len(e.digests.ServiceHits) {
					err = checkDigest(trace, e.digests.ServiceHits[spec], raw)
				}
				if err == nil {
					mu.Lock()
					err = addSimCounts(r.simCounts, a.Data)
					mu.Unlock()
				}
				if err != nil {
					fail("hit %d: %v", k, err)
					continue
				}
				first[spec] = raw
			} else if !bytes.Equal(raw, first[spec]) {
				fail("hit %d: artifact differs from the first fetch of its spec", k)
				continue
			}
			mu.Lock()
			hitLat = append(hitLat, lat)
			mu.Unlock()
			nHits.Add(1)
		}
	}()
	wg.Wait()
	win.end()

	sp := tr.start("service.stop", "teardown", 0)
	drain, err := svc.stop()
	sp.finish()
	if err != nil {
		return err
	}
	drains = append(drains, msOf(drain))
	jbytes := treeBytes(data)

	st.mu.Lock()
	defer st.mu.Unlock()
	secs := win.seconds()
	r.attempted = attempts.Load() + int64(len(st.lat["claim"])+len(st.lat["renew"])+len(st.lat["upload"])+len(st.lat["release"]))
	r.failed = failures.Load() + int64(st.refused)
	if st.refused > 0 {
		r.problem("%d requests refused (429/503 or lease plane)", st.refused)
	}
	r.set("replicates_per_s", float64(st.uploaded)/secs, 0)
	r.set("jobs_per_s", float64(len(jobLat))/secs, 0)
	r.setPercentile("job_p50_ms", jobLat, 50)
	r.setPercentile("hit_p50_ms", hitLat, 50)
	r.setPercentile("hit_p90_ms", hitLat, 90)
	r.setPercentile("loadgen.late_ms", late, 50)
	r.setPercentile("client.submit_ms", st.lat["submit"], 50)
	r.setPercentile("client.result_ms", st.lat["result"], 50)
	if len(jobLat) > 0 {
		r.set("client.polls_per_job", float64(st.calls["jobs/poll"])/float64(len(jobLat)), len(jobLat))
	}
	claims := len(st.lat["claim"])
	r.set("lease.claims", float64(claims), 0)
	if claims > 0 {
		r.set("lease.claim_grant_ratio", float64(st.granted)/float64(claims), claims)
	}
	r.setPercentile("lease.claim_ms", st.lat["claim"], 50)
	r.set("lease.uploads", float64(len(st.lat["upload"])), 0)
	r.setPercentile("lease.upload_ms", st.lat["upload"], 50)
	r.set("lease.renews", float64(len(st.lat["renew"])), 0)
	r.set("lease.duplicates", float64(st.dups), 0)
	r.set("sweepd.drain_ms", median(drains), len(drains))
	r.set("journal.bytes", float64(jbytes), 0)
	r.set("scenario.replicates", float64(st.uploaded), 0)
	if len(late) > 0 {
		mx := late[0]
		for _, l := range late {
			mx = max(mx, l)
		}
		r.note("load generator: %d sends, median %.3fms late, worst %.3fms", len(late), median(late), mx)
	}
	r.note("%d fresh jobs, %d cache hits, %d uploaded replicates in %.2fs", len(jobLat), len(hitLat), st.uploaded, secs)
	return nil
}
