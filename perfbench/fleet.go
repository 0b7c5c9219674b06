package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sweepd"
)

// Fleet shape: quick replicas of the cheap experiments, two workers with
// one job each, over HTTP on loopback.
var fleetExperiments = []string{"fig5", "fig6", "fig7", "fig9", "sec32"}

const (
	fleetReplicas = 60
	fleetWorkers  = 2
	// fleetPollMax caps a worker's sleep after an empty lease. With the
	// default 2 s, a sweep ended in one of two ways at random: the last
	// idle worker either saw Done at once or slept 2–3 s first, so wall_s
	// jumped between ~1.5 s and ~3.7 s from sweep to sweep. 10 ms keeps
	// the idle polls and the exit lag but bounds the lag to a poll.
	fleetPollMax = 10 * time.Millisecond
	// fleetDeadline bounds one sweep; a healthy one takes a few seconds.
	fleetDeadline = 2 * time.Minute
)

// fleet is the fleet workload: one batch is a whole distributed sweep —
// a journaled coordinator behind the HTTP server, two workers — and one
// op is one unit, from its lease request to its accepted completion.
type fleet struct {
	seed  uint64
	tmp   string
	units []sweepd.Unit
	index map[sweepd.UnitID]int

	results map[sweepd.UnitID]string // merged results of the first sweep
	rounds  int
	ops     int64
}

func newFleet(seed uint64, tmp string) *fleet {
	f := &fleet{seed: seed, tmp: tmp, units: sweepd.ReplicaUnits(fleetExperiments, seed, true, fleetReplicas)}
	f.index = make(map[sweepd.UnitID]int, len(f.units))
	for i, u := range f.units {
		f.index[u.ID] = i
	}
	return f
}

func (f *fleet) MinBatches() int { return 1 }

// Setup times one set-up of a sweep's infrastructure and tears it down
// unused; every batch also times its own.
func (f *fleet) Setup() (time.Duration, error) {
	start := time.Now()
	s, err := f.setUp(nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, s.tearDown()
}

// sweep is one fleet batch's infrastructure.
type sweep struct {
	dir       string
	coord     *sweepd.Coordinator
	srv       *http.Server
	served    chan error
	transport *http.Transport
	workers   []*sweepd.Worker
	rec       *rpcRecorder
}

// setUp builds the coordinator with a journaled state dir, the HTTP
// server on 127.0.0.1, and the workers' HTTP clients.
func (f *fleet) setUp(tr *Tracer) (*sweep, error) {
	s := &sweep{rec: newRecorder(tr, f.ops, f.index)}
	var err error
	if s.dir, err = os.MkdirTemp(f.tmp, "fleet-"); err != nil {
		return nil, err
	}
	s.coord, err = sweepd.NewCoordinator(sweepd.CoordinatorConfig{StateDir: s.dir, Seed: f.seed}, f.units)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	gate := sweepd.NewGate(sweepd.GateConfig{})
	s.coord.AttachGate(gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.coord.Close()
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.srv = sweepd.NewHTTPServer(ln.Addr().String(), sweepd.NewServer(s.coord, sweepd.ServerConfig{Gate: gate}), sweepd.HTTPTimeouts{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	s.transport = &http.Transport{MaxConnsPerHost: fleetWorkers, MaxIdleConnsPerHost: fleetWorkers}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: s.transport}
	for i := 0; i < fleetWorkers; i++ {
		s.workers = append(s.workers, sweepd.NewWorker(sweepd.WorkerConfig{
			ID:      fmt.Sprintf("w%d", i),
			Client:  &recordingClient{inner: &sweepd.HTTPClient{Base: "http://" + ln.Addr().String(), HTTP: hc}, rec: s.rec},
			Run:     s.rec.wrapRunner(sweepd.ExperimentRunner(runner.Config{})),
			Jobs:    1,
			PollMax: fleetPollMax,
		}))
	}
	return s, nil
}

// tearDown stops the server, drops idle connections, closes the journal
// and removes the state dir.
func (s *sweep) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	if cerr := s.coord.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (f *fleet) Batch(tr *Tracer) (Batch, error) {
	t0 := time.Now()
	s, err := f.setUp(tr)
	if err != nil {
		return Batch{}, err
	}
	setup := time.Since(t0)

	start := time.Now()
	s.rec.start = start
	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		wg.Add(1)
		go func(i int, w *sweepd.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	wall := time.Since(start)
	cancel()

	snap := s.coord.Snapshot()
	results := map[sweepd.UnitID]string{}
	for _, u := range f.units {
		if r, ok := s.coord.Result(u.ID); ok {
			results[u.ID] = r
		}
	}
	if err := s.tearDown(); err != nil {
		return Batch{}, fmt.Errorf("fleet tear-down: %w", err)
	}
	f.ops += int64(len(f.units))
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: worker w%d: %v\n", i, err)
		}
	}

	b := s.rec.batch()
	b.Setup, b.Wall = setup, wall
	select {
	case <-s.coord.Done():
	default:
		fmt.Fprintln(os.Stderr, "perfbench: fleet sweep never finished")
		b.ToLast = wall
	}
	b.Counts["sweepd.exit_lag_s"] = (wall - b.ToLast).Seconds()
	b.Counts["sweepd.overhead_frac"] = 1 - b.Counts["sweepd.unit_busy_s"]/(fleetWorkers*b.ToLast.Seconds())
	b.Attempted, b.Failed = len(f.units), f.checkSweep(snap, results)
	d := newDigest()
	for _, u := range f.units {
		d.add("%s %x\n%s", u.ID, u.Seed, results[u.ID])
	}
	d.add("complete=%g", b.Counts["sweepd.rpc.complete"])
	b.Digest = d.sum()
	if f.results == nil {
		f.results = results
	}
	f.rounds++
	return b, nil
}

// checkSweep counts the units that were not merged exactly once, or
// whose merged result differs from the first sweep's at the same seed.
func (f *fleet) checkSweep(snap sweepd.Status, results map[sweepd.UnitID]string) int {
	failed := 0
	for _, u := range snap.Units {
		ok := u.State == sweepd.UnitDone && u.Completions == 1
		if f.results != nil && f.results[u.Unit.ID] != results[u.Unit.ID] {
			ok = false
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unit %s: state=%s completions=%d\n", u.Unit.ID, u.State, u.Completions)
			failed++
		}
	}
	return failed
}

// Finish renders every unit's experiment in process, off the clock, and
// compares it with the merged result; a mismatch fails that unit in
// every sweep that merged it.
func (f *fleet) Finish() (int, error) {
	failed := 0
	for _, u := range f.units {
		e, ok := experiments.Get(u.Experiment)
		if !ok {
			return 0, fmt.Errorf("unknown experiment %q", u.Experiment)
		}
		res, err := e.Run(experiments.Options{Seed: u.Seed, Quick: u.Quick})
		var b strings.Builder
		if err == nil {
			err = res.Render(&b)
		}
		if err != nil || b.String() != f.results[u.ID] {
			fmt.Fprintf(os.Stderr, "perfbench: unit %s: merged result differs from an in-process render (%v)\n", u.ID, err)
			failed += f.rounds
		}
	}
	return failed, nil
}

func (f *fleet) Layers(bs []Batch, tr *Tracer) map[string]float64 {
	m := map[string]float64{}
	for _, k := range []string{
		"sweepd.lease_empty", "sweepd.unit_busy_s", "sweepd.overhead_frac", "sweepd.exit_lag_s",
		"sweepd.rpc.lease", "sweepd.rpc.heartbeat", "sweepd.rpc.complete",
		"sweepd.rpc.complete_batch", "sweepd.rpc.release",
	} {
		m[k] = meanCount(bs, k)
	}
	lease, complete := tr.Durations("sweepd.Client.Lease"), tr.Durations("sweepd.Client.Complete")
	m["sweepd.lease_ms_p50"] = percentile(lease, 50)
	m["sweepd.lease_ms_p90"] = percentile(lease, 90)
	m["sweepd.complete_ms_p50"] = percentile(complete, 50)
	m["sweepd.complete_ms_p90"] = percentile(complete, 90)
	return m
}

// rpcRecorder observes one sweep from outside the sweepd package: it
// counts and times every client call and unit run, derives each unit's
// latency, and (when tracing) records their spans.
type rpcRecorder struct {
	tr    *Tracer
	base  int64
	index map[sweepd.UnitID]int
	// start is when the sweep's workers were started; set before they
	// run, so it is read without the lock.
	start time.Time

	mu     sync.Mutex
	leased map[sweepd.UnitID]leaseMark
	done   map[sweepd.UnitID]bool
	lat    []time.Duration
	counts map[string]float64
	// lastDone is start to the last accepted completion, as its worker
	// saw it: when the sweep became Done. It is taken on the worker's
	// own goroutine, so it precedes that worker's exit and wall_s.
	lastDone time.Duration
}

// leaseMark is when a unit's op began and its root span's identity.
type leaseMark struct {
	at   time.Time
	span Span
	op   int64
}

func newRecorder(tr *Tracer, base int64, index map[sweepd.UnitID]int) *rpcRecorder {
	return &rpcRecorder{
		tr: tr, base: base, index: index,
		leased: map[sweepd.UnitID]leaseMark{}, done: map[sweepd.UnitID]bool{},
		counts: map[string]float64{},
	}
}

func (r *rpcRecorder) op(id sweepd.UnitID) int64 { return r.base + int64(r.index[id]) + 1 }

func (r *rpcRecorder) mark(id sweepd.UnitID) leaseMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leased[id]
}

func (r *rpcRecorder) count(key string, v float64) {
	r.mu.Lock()
	r.counts[key] += v
	r.mu.Unlock()
}

// batch hands the sweep's tallies to a Batch.
func (r *rpcRecorder) batch() Batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := map[string]float64{}
	for k, v := range r.counts {
		counts[k] = v
	}
	return Batch{Ops: append([]time.Duration(nil), r.lat...), Counts: counts, ToLast: r.lastDone}
}

// wrapRunner times each unit run (sweepd.unit_busy_s).
func (r *rpcRecorder) wrapRunner(inner sweepd.UnitRunner) sweepd.UnitRunner {
	return func(ctx context.Context, u sweepd.Unit, progress func(string)) sweepd.UnitResult {
		lm := r.mark(u.ID)
		sp := r.tr.Begin("sweepd.UnitRunner", lm.op, lm.span.ID)
		t0 := time.Now()
		res := inner(ctx, u, progress)
		r.count("sweepd.unit_busy_s", time.Since(t0).Seconds())
		r.tr.End(sp)
		return res
	}
}

// recordingClient wraps a worker's coordinator client.
type recordingClient struct {
	inner sweepd.Client
	rec   *rpcRecorder
}

func (c *recordingClient) Lease(ctx context.Context, req sweepd.LeaseRequest) (sweepd.LeaseResponse, error) {
	r := c.rec
	at := time.Now()
	sp := r.tr.Begin("sweepd.Client.Lease", 0, 0)
	resp, err := c.inner.Lease(ctx, req)
	r.mu.Lock()
	r.counts["sweepd.rpc.lease"]++
	if err == nil && len(resp.Units) == 0 && !resp.Done && !resp.Draining {
		r.counts["sweepd.lease_empty"]++
	}
	for _, lu := range resp.Units {
		root := r.tr.Begin("fleet.unit", r.op(lu.Unit.ID), 0)
		root.Start = sp.Start
		r.leased[lu.Unit.ID] = leaseMark{at: at, span: root, op: root.Op}
		sp.Op, sp.Parent = root.Op, root.ID
	}
	r.mu.Unlock()
	r.tr.End(sp)
	return resp, err
}

func (c *recordingClient) Heartbeat(ctx context.Context, req sweepd.HeartbeatRequest) (sweepd.HeartbeatResponse, error) {
	lm := c.rec.mark(req.Unit)
	sp := c.rec.tr.Begin("sweepd.Client.Heartbeat", lm.op, lm.span.ID)
	resp, err := c.inner.Heartbeat(ctx, req)
	c.rec.tr.End(sp)
	c.rec.count("sweepd.rpc.heartbeat", 1)
	return resp, err
}

func (c *recordingClient) Complete(ctx context.Context, req sweepd.CompleteRequest) (sweepd.CompleteResponse, error) {
	r := c.rec
	lm := r.mark(req.Unit)
	sp := r.tr.Begin("sweepd.Client.Complete", lm.op, lm.span.ID)
	resp, err := c.inner.Complete(ctx, req)
	r.tr.End(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts["sweepd.rpc.complete"]++
	if err == nil && resp.Accepted && !r.done[req.Unit] {
		r.done[req.Unit] = true
		r.lat = append(r.lat, time.Since(lm.at))
		r.lastDone = time.Since(r.start)
		r.tr.End(lm.span)
	}
	return resp, err
}

// CompleteBatch and Release are only counted: the fleet's workers
// complete one unit at a time and release only when aborted.
func (c *recordingClient) CompleteBatch(ctx context.Context, req sweepd.CompleteBatchRequest) (sweepd.CompleteBatchResponse, error) {
	c.rec.count("sweepd.rpc.complete_batch", 1)
	return c.inner.CompleteBatch(ctx, req)
}

func (c *recordingClient) Release(ctx context.Context, req sweepd.ReleaseRequest) (sweepd.ReleaseResponse, error) {
	c.rec.count("sweepd.rpc.release", 1)
	return c.inner.Release(ctx, req)
}
