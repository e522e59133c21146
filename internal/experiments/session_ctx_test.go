package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/telemetry"
)

// bigOptions is a working set large enough that a simulation reliably
// outlives the test's cancellation window.
func bigOptions() Options {
	opts := testOptions()
	opts.AccessesPerCore = 500_000
	return opts
}

// TestResultCancelledWhenLastWaiterLeaves starts one simulation (or one
// trace capture), cancels its only waiter, and checks the run aborts
// promptly, reports a context error, and leaves the memo so a fresh
// request re-runs.
func TestResultCancelledWhenLastWaiterLeaves(t *testing.T) {
	for _, tc := range []struct {
		name   string
		call   func(*Session, context.Context) error
		inMemo func(*Session) bool // called with s.mu held
	}{
		{
			name: "sim",
			call: func(s *Session, ctx context.Context) error {
				_, err := s.Result(ctx, "STREAM", coalesce.ModePAC)
				return err
			},
			inMemo: func(s *Session) bool {
				_, ok := s.sims[simKey{"STREAM", coalesce.ModePAC, varDefault}]
				return ok
			},
		},
		{
			name: "trace",
			call: func(s *Session, ctx context.Context) error {
				_, err := s.traceCtx(ctx, "STREAM")
				return err
			},
			inMemo: func(s *Session) bool {
				_, ok := s.traces["STREAM"]
				return ok
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(bigOptions())
			var (
				mu        sync.Mutex
				cancelled int
			)
			s.Hooks = &telemetry.Hooks{Observer: func(ev telemetry.Event) {
				if ev.Kind == telemetry.KindSimCancelled {
					mu.Lock()
					cancelled++
					mu.Unlock()
				}
			}}

			ctx, cancel := context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() { errCh <- tc.call(s, ctx) }()
			time.Sleep(20 * time.Millisecond) // let the run start
			cancel()

			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled waiter did not return")
			}

			// The detached executor notices the cancellation and evicts
			// the entry; poll briefly since it runs on its own goroutine.
			deadline := time.Now().Add(5 * time.Second)
			for {
				s.mu.Lock()
				inMemo := tc.inMemo(s)
				s.mu.Unlock()
				if !inMemo {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("cancelled entry still memoised")
				}
				time.Sleep(5 * time.Millisecond)
			}
			mu.Lock()
			if cancelled != 1 {
				t.Errorf("KindSimCancelled fired %d times, want 1", cancelled)
			}
			mu.Unlock()
			if s.Completed() != 0 {
				t.Errorf("Completed() = %d after an aborted run, want 0", s.Completed())
			}
		})
	}
}

// TestResultSurvivesOneWaiterLeaving checks the refcount: with two
// waiters on one run, one disconnecting does not abort it — the other
// still gets the real result.
func TestResultSurvivesOneWaiterLeaving(t *testing.T) {
	s := NewSession(bigOptions())

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	type res struct {
		err error
	}
	first := make(chan res, 1)
	go func() {
		_, err := s.Result(ctx1, "STREAM", coalesce.ModePAC)
		first <- res{err}
	}()
	time.Sleep(10 * time.Millisecond) // both waiters attach to one entry
	second := make(chan res, 1)
	go func() {
		_, err := s.Result(context.Background(), "STREAM", coalesce.ModePAC)
		second <- res{err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel1()

	if r := <-first; !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", r.err)
	}
	select {
	case r := <-second:
		if r.err != nil {
			t.Fatalf("surviving waiter err = %v, want nil", r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("surviving waiter never finished")
	}
	if s.Completed() != 1 {
		t.Errorf("Completed() = %d, want 1 (run must not abort)", s.Completed())
	}
}

// TestResultRerunsAfterCancellation checks eviction end-to-end: a
// cancelled run does not poison the memo — the next request runs fresh
// and succeeds.
func TestResultRerunsAfterCancellation(t *testing.T) {
	opts := testOptions()
	opts.AccessesPerCore = 50_000
	s := NewSession(opts)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expire before the first wait: the waiter leaves immediately
	if _, err := s.Result(ctx, "STREAM", coalesce.ModePAC); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	res, err := s.Result(context.Background(), "STREAM", coalesce.ModePAC)
	if err != nil || res == nil {
		t.Fatalf("fresh run after cancellation: res=%v err=%v", res, err)
	}
	if again, err := s.Result(context.Background(), "STREAM", coalesce.ModePAC); err != nil || again != res {
		t.Errorf("repeat after the re-run = %p, %v; want the memoised %p", again, err, res)
	}
	if s.Completed() != 1 {
		t.Errorf("Completed() = %d, want 1 (the re-run only)", s.Completed())
	}
}

// TestMemoHitMissEvents checks the telemetry the pacd cache-hit
// acceptance rides on: first lookup emits one miss, repeat lookups one
// hit each, and no second simulation runs.
func TestMemoHitMissEvents(t *testing.T) {
	opts := testOptions()
	opts.AccessesPerCore = 1_000
	s := NewSession(opts)
	reg := telemetry.NewRegistry()
	s.Hooks = telemetry.InstrumentedHooks(reg)

	if _, err := s.Result(context.Background(), "STREAM", coalesce.ModePAC); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(context.Background(), "STREAM", coalesce.ModePAC); err != nil {
		t.Fatal(err)
	}

	if v, _ := reg.Value(telemetry.MetricMemoMisses); v != 1 {
		t.Errorf("memo misses = %v, want 1", v)
	}
	if v, _ := reg.Value(telemetry.MetricMemoHits); v != 1 {
		t.Errorf("memo hits = %v, want 1", v)
	}
	if v, _ := reg.Value(telemetry.MetricSimsCompleted); v != 1 {
		t.Errorf("sims completed = %v, want 1 (repeat lookup must not re-run)", v)
	}
	if v, _ := reg.Value(telemetry.MetricSimsStarted); v != 1 {
		t.Errorf("sims started = %v, want 1", v)
	}
}

// TestPrecomputeCancelled checks Precompute honours its context: it
// returns the context error promptly, well before the full suite could
// possibly finish.
func TestPrecomputeCancelled(t *testing.T) {
	s := NewSession(bigOptions())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err := s.Precompute(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Precompute err = %v, want context.Canceled", err)
	}
}
