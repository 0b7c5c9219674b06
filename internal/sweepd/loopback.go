package sweepd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/faults"
)

// Loopback is the in-process transport: a Client that calls the
// coordinator directly, with no sockets and no serialization. It makes
// the entire lease/heartbeat/complete protocol hermetically testable —
// and, wrapped in a FaultyClient, chaos-testable — inside one process.
type Loopback struct{ C *Coordinator }

// Lease implements Client.
func (l Loopback) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	if err := ctx.Err(); err != nil {
		return LeaseResponse{}, err
	}
	return l.C.Lease(req), nil
}

// Heartbeat implements Client.
func (l Loopback) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := ctx.Err(); err != nil {
		return HeartbeatResponse{}, err
	}
	return l.C.Heartbeat(req), nil
}

// Complete implements Client.
func (l Loopback) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	if err := ctx.Err(); err != nil {
		return CompleteResponse{}, err
	}
	return l.C.Complete(req), nil
}

// CompleteBatch implements Client.
func (l Loopback) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	if err := ctx.Err(); err != nil {
		return CompleteBatchResponse{}, err
	}
	return l.C.CompleteBatch(req), nil
}

// Release implements Client.
func (l Loopback) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	if err := ctx.Err(); err != nil {
		return ReleaseResponse{}, err
	}
	return l.C.Release(req), nil
}

// ErrInjectedNetFault is the transport error a FaultyClient surfaces
// for dropped requests and responses.
var ErrInjectedNetFault = errors.New("sweepd: injected network fault")

// FaultyClient wraps a Client with a deterministic network-fault plan
// (internal/faults.NetPlan): per-call drops, delays, duplications, and
// partition windows. A dropped *request* never reaches the inner
// client; a dropped *response* does — the coordinator acts on it while
// the worker sees an error and retries, which is the duplicated-
// delivery path the coordinator's idempotency must absorb.
type FaultyClient struct {
	Inner  Client
	Plan   *faults.NetPlan
	Worker string
	Clock  Clock
}

func call[Req, Resp any](ctx context.Context, f *FaultyClient, req Req, inner func(context.Context, Req) (Resp, error)) (Resp, error) {
	var zero Resp
	clock := f.Clock
	if clock == nil {
		clock = RealClock{}
	}
	v := f.Plan.Next(f.Worker, clock.Now())
	if v.Delay > 0 {
		if err := clock.Sleep(ctx, v.Delay); err != nil {
			return zero, err
		}
	}
	if v.DropRequest {
		return zero, fmt.Errorf("%w: request dropped", ErrInjectedNetFault)
	}
	resp, err := inner(ctx, req)
	if v.Duplicate && err == nil {
		// The network delivered the request twice; the second delivery's
		// response is the one the caller reads.
		resp, err = inner(ctx, req)
	}
	if v.DropResponse {
		return zero, fmt.Errorf("%w: response dropped", ErrInjectedNetFault)
	}
	return resp, err
}

// Lease implements Client.
func (f *FaultyClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return call(ctx, f, req, f.Inner.Lease)
}

// Heartbeat implements Client.
func (f *FaultyClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return call(ctx, f, req, f.Inner.Heartbeat)
}

// Complete implements Client.
func (f *FaultyClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return call(ctx, f, req, f.Inner.Complete)
}

// CompleteBatch implements Client.
func (f *FaultyClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	return call(ctx, f, req, f.Inner.CompleteBatch)
}

// Release implements Client.
func (f *FaultyClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return call(ctx, f, req, f.Inner.Release)
}

// AdmittedClient routes loopback calls through an admission gate: the
// exact middleware path HTTP requests take, minus the sockets. A shed
// call returns the gate's *OverloadError; the coordinator is never
// touched. This is what lets the overload chaos test prove the
// admission invariants (inflight ≤ cap, shed-then-retried-to-success)
// against hundreds of in-process workers.
type AdmittedClient struct {
	Inner Client
	Gate  *Gate
}

// admitted acquires the gate around one call.
func admitted[Req, Resp any](ctx context.Context, g *Gate, endpoint string, req Req, inner func(context.Context, Req) (Resp, error)) (Resp, error) {
	var zero Resp
	release, err := g.Acquire(ctx, endpoint)
	if err != nil {
		return zero, err
	}
	defer release()
	return inner(ctx, req)
}

// Lease implements Client.
func (a *AdmittedClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return admitted(ctx, a.Gate, EndpointLease, req, a.Inner.Lease)
}

// Heartbeat implements Client.
func (a *AdmittedClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return admitted(ctx, a.Gate, EndpointHeartbeat, req, a.Inner.Heartbeat)
}

// Complete implements Client.
func (a *AdmittedClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return admitted(ctx, a.Gate, EndpointComplete, req, a.Inner.Complete)
}

// CompleteBatch implements Client. Batches share the complete
// endpoint's limits, mirroring the HTTP route map.
func (a *AdmittedClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	return admitted(ctx, a.Gate, EndpointComplete, req, a.Inner.CompleteBatch)
}

// Release implements Client.
func (a *AdmittedClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return admitted(ctx, a.Gate, EndpointRelease, req, a.Inner.Release)
}

// LatencyClient shapes loopback calls with an overload plan: each call
// stalls for the plan's verdict (latency ramp, slow-loris trickle)
// before reaching the inner client. Stalls happen *inside* any
// admission wrapper placed around this client — a trickling call holds
// its gate slot the whole time, which is precisely the resource
// exhaustion slow-loris attacks exploit and the queue bound must
// survive.
type LatencyClient struct {
	Inner  Client
	Plan   *faults.OverloadPlan
	Worker string
	Clock  Clock
}

// shaped stalls one call per the plan.
func shaped[Req, Resp any](ctx context.Context, l *LatencyClient, req Req, inner func(context.Context, Req) (Resp, error)) (Resp, error) {
	clock := l.Clock
	if clock == nil {
		clock = RealClock{}
	}
	if stall := l.Plan.Next(l.Worker, clock.Now()); stall > 0 {
		if err := clock.Sleep(ctx, stall); err != nil {
			var zero Resp
			return zero, err
		}
	}
	return inner(ctx, req)
}

// Lease implements Client.
func (l *LatencyClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return shaped(ctx, l, req, l.Inner.Lease)
}

// Heartbeat implements Client.
func (l *LatencyClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return shaped(ctx, l, req, l.Inner.Heartbeat)
}

// Complete implements Client.
func (l *LatencyClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return shaped(ctx, l, req, l.Inner.Complete)
}

// CompleteBatch implements Client.
func (l *LatencyClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	return shaped(ctx, l, req, l.Inner.CompleteBatch)
}

// Release implements Client.
func (l *LatencyClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return shaped(ctx, l, req, l.Inner.Release)
}

// FleetConfig tunes an in-process worker fleet over the loopback
// transport.
type FleetConfig struct {
	// Workers is the initial fleet width.
	Workers int
	// Jobs is each worker's concurrent unit count.
	Jobs int
	// NewRunner builds each worker's UnitRunner (workers should not
	// share mutable runner state).
	NewRunner func(workerID string) UnitRunner
	// Plan, when non-nil, injects network faults and schedules kills.
	Plan *faults.NetPlan
	// Overload, when non-nil, shapes every call with latency ramps and
	// slow-loris trickles (LatencyClient).
	Overload *faults.OverloadPlan
	// Gate, when non-nil, routes every call through admission control
	// (AdmittedClient).
	Gate *Gate
	// HerdStart releases every initial worker at the same instant — the
	// thundering-herd shape — instead of letting goroutine scheduling
	// stagger them.
	HerdStart bool
	// BatchCompletes and RetryBase are forwarded to each WorkerConfig.
	BatchCompletes bool
	RetryBase      time.Duration
	// Respawn replaces killed workers (fresh ID, fresh kill draw) while
	// the sweep is unfinished, up to MaxRespawns (zero means 4× the
	// fleet width).
	Respawn     bool
	MaxRespawns int
	// Clock supplies time; nil means the wall clock.
	Clock Clock
	// PollMax caps worker idle backoff (forwarded to WorkerConfig).
	PollMax time.Duration
	// Log receives fleet progress lines; nil discards them.
	Log io.Writer
}

// FleetReport summarizes a fleet run.
type FleetReport struct {
	// Spawned counts every worker ever started (initial + respawns);
	// Killed counts chaos kills.
	Spawned, Killed int
}

// RunFleet drives an in-process fleet against the coordinator until the
// sweep finishes, the coordinator drains, or ctx is cancelled. It is
// the loopback mode behind `ufsim serve -loopback` and the chaos tests.
func RunFleet(ctx context.Context, c *Coordinator, cfg FleetConfig) FleetReport {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 4 * cfg.Workers
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock{}
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}

	var (
		mu       sync.Mutex
		rep      FleetReport
		respawns int
		wg       sync.WaitGroup
	)
	// start is the herd barrier: with HerdStart every initial worker
	// blocks on it, then all are released by one close — the synchronized
	// stampede the admission gate exists to absorb. Without HerdStart it
	// starts closed and gates nothing.
	start := make(chan struct{})
	if !cfg.HerdStart {
		close(start)
	}
	var spawn func(idx int)
	spawn = func(idx int) {
		id := fmt.Sprintf("w%d", idx)
		// Chain, coordinator-outward: latency shaping innermost so a
		// stalling call happens *inside* the admission gate — a trickling
		// call holds its gate slot for the whole stall, the slow-loris
		// resource exhaustion the queue bound must absorb — then the gate
		// (the coordinator's front door on both transports), then network
		// faults on the way there.
		var client Client = Loopback{C: c}
		if cfg.Overload != nil {
			client = &LatencyClient{Inner: client, Plan: cfg.Overload, Worker: id, Clock: clock}
		}
		if cfg.Gate != nil {
			client = &AdmittedClient{Inner: client, Gate: cfg.Gate}
		}
		kill := 0
		if cfg.Plan != nil {
			client = &FaultyClient{Inner: client, Plan: cfg.Plan, Worker: id, Clock: clock}
			kill = cfg.Plan.KillAfterUnits(id)
		}
		w := NewWorker(WorkerConfig{
			ID: id, Client: client, Run: cfg.NewRunner(id),
			Clock: clock, Jobs: cfg.Jobs, PollMax: cfg.PollMax,
			RetryBase: cfg.RetryBase, BatchCompletes: cfg.BatchCompletes,
			KillAfterUnits: kill, Log: logw,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-start:
			case <-ctx.Done():
				return
			}
			if err := w.Run(ctx); !errors.Is(err, ErrKilled) {
				return
			}
			mu.Lock()
			rep.Killed++
			done := false
			select {
			case <-c.Done():
				done = true
			default:
			}
			if cfg.Respawn && !done && respawns < cfg.MaxRespawns && ctx.Err() == nil {
				respawns++
				rep.Spawned++
				next := cfg.Workers + respawns
				mu.Unlock()
				fmt.Fprintf(logw, "fleet: respawning after kill as w%d\n", next)
				spawn(next)
				return
			}
			mu.Unlock()
		}()
	}
	mu.Lock()
	for i := 1; i <= cfg.Workers; i++ {
		rep.Spawned++
		spawn(i)
	}
	mu.Unlock()
	if cfg.HerdStart {
		fmt.Fprintf(logw, "fleet: releasing %d worker(s) as one herd\n", cfg.Workers)
		close(start)
	}
	wg.Wait()
	return rep
}
