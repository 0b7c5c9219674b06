package sweepd

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetrierJitterDivergesAcrossWorkers: two workers with identical
// configuration (same failure history, same retry base) draw different
// backoff schedules, because each seeds its jitter stream from its own
// ID. Identical schedules are the thundering herd: every worker would
// return at the same instant forever.
func TestRetrierJitterDivergesAcrossWorkers(t *testing.T) {
	schedule := func(id string) []time.Duration {
		w := NewWorker(WorkerConfig{
			ID: "worker-" + id, Client: Loopback{},
			Run: func(ctx context.Context, u Unit, p func(string)) UnitResult { return UnitResult{} },
		})
		r := w.newRetrier("lease")
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	a, b := schedule("a"), schedule("b")
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("two workers drew identical backoff schedules %v — no jitter", a)
	}
	// And a worker is deterministic against itself: reruns reproduce.
	if a2 := schedule("a"); len(a2) != len(a) || a2[0] != a[0] || a2[7] != a[7] {
		t.Fatalf("same worker drew different schedules across runs: %v vs %v", a, a2)
	}
}

// TestRetrierBackoffShape: waits are positive, capped at max, and grow
// in expectation; reset rewinds; stretch never shrinks a server hint.
func TestRetrierBackoffShape(t *testing.T) {
	w := NewWorker(WorkerConfig{
		ID: "shape", Client: Loopback{},
		Run:       func(ctx context.Context, u Unit, p func(string)) UnitResult { return UnitResult{} },
		RetryBase: 10 * time.Millisecond, PollMax: 80 * time.Millisecond,
	})
	r := w.newRetrier("lease")
	for i := 0; i < 50; i++ {
		d := r.next()
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("wait %d = %v out of (0, PollMax]", i, d)
		}
	}
	r.reset()
	if d := r.next(); d > 10*time.Millisecond {
		t.Fatalf("first wait after reset = %v, want <= base", d)
	}
	for i := 0; i < 100; i++ {
		hint := 40 * time.Millisecond
		got := r.stretch(hint)
		if got < hint || got > hint+hint/2 {
			t.Fatalf("stretch(%v) = %v, want within [hint, 1.5×hint]", hint, got)
		}
	}
}

// countingClient tallies protocol round trips to the coordinator.
type countingClient struct {
	inner                 Client
	leases, completes     atomic.Int64
	batches, batchedUnits atomic.Int64
	heartbeats, releases  atomic.Int64
}

func (c *countingClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	c.leases.Add(1)
	return c.inner.Lease(ctx, req)
}
func (c *countingClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.heartbeats.Add(1)
	return c.inner.Heartbeat(ctx, req)
}
func (c *countingClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	c.completes.Add(1)
	return c.inner.Complete(ctx, req)
}
func (c *countingClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	c.batches.Add(1)
	c.batchedUnits.Add(int64(len(req.Units)))
	return c.inner.CompleteBatch(ctx, req)
}
func (c *countingClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	c.releases.Add(1)
	return c.inner.Release(ctx, req)
}

// TestBatchedCompletesFewerRoundTrips: with BatchCompletes a worker
// running units concurrently ships strictly fewer completion round
// trips than units completed — the point of the batch — and zero
// per-unit Completes; the sweep still merges every unit exactly once.
func TestBatchedCompletesFewerRoundTrips(t *testing.T) {
	const nUnits = 12
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(nUnits))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	counter := &countingClient{inner: Loopback{C: c}}
	var mu sync.Mutex
	exec := map[UnitID]int{}
	w := NewWorker(WorkerConfig{
		ID: "batcher", Client: counter,
		Run:            okRunner(&mu, exec)("batcher"),
		Jobs:           6,
		BatchCompletes: true,
		BatchLinger:    50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}

	st := c.Snapshot()
	if st.Done != nUnits {
		t.Fatalf("done=%d, want %d", st.Done, nUnits)
	}
	for _, u := range st.Units {
		if u.Completions != 1 {
			t.Fatalf("%s merged %d times, want 1", u.Unit.ID, u.Completions)
		}
	}
	if got := counter.completes.Load(); got != 0 {
		t.Fatalf("%d per-unit Complete calls despite batching", got)
	}
	if counter.batchedUnits.Load() != nUnits {
		t.Fatalf("batches carried %d units, want %d", counter.batchedUnits.Load(), nUnits)
	}
	if b := counter.batches.Load(); b == 0 || b >= nUnits {
		t.Fatalf("%d batch round trips for %d units — batching saved nothing", b, nUnits)
	}
	t.Logf("batched: %d units in %d round trips (vs %d unbatched)",
		nUnits, counter.batches.Load(), nUnits)
}

// TestBatchedCompletesSurviveShedding: every CompleteBatch is shed with
// a retry hint a few times before being admitted; the batch is
// redelivered and the sweep still merges exactly once.
func TestBatchedCompletesSurviveShedding(t *testing.T) {
	const nUnits = 6
	c, err := NewCoordinator(CoordinatorConfig{}, testUnits(nUnits))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	var drops atomic.Int64
	shedder := &sheddingClient{inner: Loopback{C: c}, shedFirst: 2, drops: &drops}
	var mu sync.Mutex
	exec := map[UnitID]int{}
	w := NewWorker(WorkerConfig{
		ID: "shedded", Client: shedder,
		Run:            okRunner(&mu, exec)("shedded"),
		Jobs:           3,
		BatchCompletes: true,
		RetryBase:      time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := c.Snapshot()
	if st.Done != nUnits {
		t.Fatalf("done=%d, want %d (batches lost to shedding?)", st.Done, nUnits)
	}
	for _, u := range st.Units {
		if u.Completions != 1 {
			t.Fatalf("%s merged %d times, want 1", u.Unit.ID, u.Completions)
		}
	}
	if drops.Load() == 0 {
		t.Fatal("shedder never shed a batch; test proved nothing")
	}
}

// sheddingClient sheds the first shedFirst CompleteBatch calls with an
// OverloadError, then admits everything.
type sheddingClient struct {
	inner     Client
	shedFirst int64
	seen      atomic.Int64
	drops     *atomic.Int64
}

func (s *sheddingClient) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	return s.inner.Lease(ctx, req)
}
func (s *sheddingClient) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return s.inner.Heartbeat(ctx, req)
}
func (s *sheddingClient) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return s.inner.Complete(ctx, req)
}
func (s *sheddingClient) CompleteBatch(ctx context.Context, req CompleteBatchRequest) (CompleteBatchResponse, error) {
	if s.seen.Add(1) <= s.shedFirst {
		s.drops.Add(1)
		return CompleteBatchResponse{}, &OverloadError{Endpoint: EndpointComplete, RetryAfter: 2 * time.Millisecond}
	}
	return s.inner.CompleteBatch(ctx, req)
}
func (s *sheddingClient) Release(ctx context.Context, req ReleaseRequest) (ReleaseResponse, error) {
	return s.inner.Release(ctx, req)
}
