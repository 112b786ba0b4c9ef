package seda

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// TestRunNetworkCtxBackgroundIdentical pins that the context plumbing
// is figure-neutral: a live, cancellable context arms the drain's
// cancellation polls, and must produce exactly the rows of an
// uncancellable context.Background run.
func TestRunNetworkCtxBackgroundIdentical(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("let")
	want, err := RunNetworkOptsCtx(context.Background(), npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunNetworkOptsCtx(ctx, npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rows under a cancellable context diverged from context.Background")
	}
}

// TestRunNetworkPreCancelled: a dead context returns its error without
// evaluating.
func TestRunNetworkPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := RunNetworkOptsCtx(ctx, EdgeNPU(), model.ByName("let"), DefaultSuiteOptions())
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("rows=%v err=%v, want nil/Canceled", rows, err)
	}
}

// TestRunSuiteCancelledMidFlight: cancelling while a multi-workload
// sweep is running unwinds the whole pipeline — protection walk, DRAM
// drains, worker pool — well before the sweep could finish.
func TestRunSuiteCancelledMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// The full 13-workload edge suite takes seconds; the test
		// cancels it almost immediately.
		_, err := RunSuiteOptsCtx(ctx, EdgeNPU(), model.All(), DefaultSuiteOptions())
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled sweep did not unwind")
	}
}

// TestRunSuiteDeadline: a context deadline surfaces as
// DeadlineExceeded from the suite entry point.
func TestRunSuiteDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := RunSuiteOptsCtx(ctx, EdgeNPU(), model.All(), DefaultSuiteOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
