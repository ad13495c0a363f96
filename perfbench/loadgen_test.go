package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// ops returns n operations spread over conns connections.
func ops(n, conns int) []*Op {
	out := make([]*Op, n)
	for i := range out {
		out[i] = &Op{Seq: i + 1, Conn: i % conns}
	}
	return out
}

// serveFor returns a sender whose reply takes d for every operation, and
// stall for the one with sequence number stallSeq.
func serveFor(d time.Duration, stallSeq int, stall time.Duration) Sender {
	return func(ctx context.Context, conn int, op *Op) (int, []byte, error) {
		wait := d
		if op.Seq == stallSeq {
			wait = stall
		}
		select {
		case <-time.After(wait):
			return 200, nil, nil
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}

func TestScheduleSpacesOpsEvenly(t *testing.T) {
	s := Schedule(ops(4, 2), 100)
	for i, sc := range s {
		if want := time.Duration(i+1) * 10 * time.Millisecond; sc.Due != want {
			t.Errorf("op %d due %v, want %v", i, sc.Due, want)
		}
		if sc.Conn != i%2 {
			t.Errorf("op %d on conn %d, want %d", i, sc.Conn, i%2)
		}
	}
}

// On an idle server every request is sent at its due time, and its
// latency is the service time measured from the due time.
func TestDueTimeAccounting(t *testing.T) {
	const service = 2 * time.Millisecond
	res := RunOpenLoop(Schedule(ops(40, 2), 200), 2, serveFor(service, 0, 0), time.Second)
	if res.BacklogEnd != 0 || res.Abandoned != 0 {
		t.Fatalf("backlog %d abandoned %d on an idle server", res.BacklogEnd, res.Abandoned)
	}
	var lags []float64
	for i, o := range res.Outcomes {
		if o.Op.Seq != i+1 {
			t.Fatalf("outcome %d holds op %d: outcomes must stay in schedule order", i, o.Op.Seq)
		}
		if o.Sent < o.Due {
			t.Errorf("op %d sent at %v before its due time %v", i, o.Sent, o.Due)
		}
		lags = append(lags, float64(o.Lag()))
		if o.Latency() < service || o.Latency() != o.Done-o.Due {
			t.Errorf("op %d latency %v: want due→done, at least the %v service time", i, o.Latency(), service)
		}
	}
	// Each connection is idle for 8 ms between requests, so a typical
	// request leaves on time; the bound leaves room for a busy machine.
	if lag := time.Duration(median(lags)); lag > 2*time.Millisecond {
		t.Errorf("median send lag %v on an idle server", lag)
	}
}

// A stalled request delays the requests queued behind it on the same
// connection, and their latency must include that wait: a generator
// that timed from the send would hide it (coordinated omission).
func TestStalledServerChargesQueuedRequests(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 120 * time.Millisecond
	)
	res := RunOpenLoop(Schedule(ops(20, 1), float64(time.Second/interval)), 1, serveFor(time.Millisecond, 3, stall), time.Second)
	stalled := res.Outcomes[2]
	stallEnd := stalled.Done
	if stalled.Latency() < stall {
		t.Fatalf("stalled op latency %v, want ≥ %v", stalled.Latency(), stall)
	}
	queued := 0
	for _, o := range res.Outcomes[3:] {
		if o.Due >= stallEnd {
			continue
		}
		queued++
		if o.Sent < stallEnd {
			t.Errorf("op %d sent at %v, while the connection was stalled until %v", o.Op.Seq, o.Sent, stallEnd)
		}
		if wait := stallEnd - o.Due; o.Latency() < wait {
			t.Errorf("op %d latency %v excludes its %v wait behind the stall", o.Op.Seq, o.Latency(), wait)
		}
	}
	if queued < 5 {
		t.Fatalf("only %d ops were due during the %v stall; the test needs several", queued, stall)
	}
}

// Operations the server cannot reach before the drain deadline are
// abandoned and counted; the backlog at the end of the schedule counts
// every operation due but not yet sent.
func TestBacklogAndAbandon(t *testing.T) {
	res := RunOpenLoop(Schedule(ops(10, 1), 100), 1, serveFor(50*time.Millisecond, 0, 0), 50*time.Millisecond)
	if res.BacklogEnd == 0 {
		t.Error("a server 5x slower than the offered rate left no backlog")
	}
	if res.Abandoned == 0 {
		t.Fatal("nothing abandoned past the drain deadline")
	}
	for _, o := range res.Outcomes {
		var ab errAbandoned
		if errors.As(o.Err, &ab) && o.Sent != -1 {
			t.Errorf("abandoned op %d reports a send time %v", o.Op.Seq, o.Sent)
		}
	}
}

func TestWindowedP99(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
	}
	// One burst of slow replies inside the first window only.
	for i := 0; i < 100; i++ {
		xs[i] = 100
	}
	if got := quantile(xs, 0.99); got != 100 {
		t.Fatalf("whole-run p99 = %v, want 100", got)
	}
	if got := windowedP99(xs, 1000); got != 1 {
		t.Errorf("windowed p99 = %v, want 1 (the burst moves one window of three)", got)
	}
}

func TestOracle(t *testing.T) {
	es := []Entity{
		{"a", map[string]uint32{"x": 2, "y": 1}},
		{"b", map[string]uint32{"x": 1, "y": 1}},
		{"c", map[string]uint32{"z": 1}},
		{"d", map[string]uint32{"y": 3}},
	}
	o := NewOracle(es)
	// ruzicka(a, b) = (1+1) / (3+2-2) = 2/3; ruzicka(a, d) = 1/(3+3-1) = 1/5.
	got := o.Threshold(es[0].Counts, 0.5, "a")
	if !SameMatches(got, []Match{{"b", 2.0 / 3}}) {
		t.Errorf("threshold = %v", got)
	}
	top := o.TopK(es[0].Counts, 5)
	if !SameMatches(top, []Match{{"a", 1}, {"b", 2.0 / 3}, {"d", 0.2}}) {
		t.Errorf("top-k = %v", top)
	}
	// kNN pads with non-overlapping entities at distance 1, by name.
	knn := o.KNN(es[0].Counts, 3, "a")
	if !SameNeighbors(knn, []Neighbor{{"b", 1.0 / 3}, {"d", 0.8}, {"c", 1}}) {
		t.Errorf("knn = %v", knn)
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	shape := TraceShape{IPs: 300, Cookies: 2000, Communities: 10, BigProxies: 1, BigCookies: 200, HotCookies: 2, HotShare: 0.05, MaxBgCookies: 10}
	a, b := GenerateTrace(shape, 7), GenerateTrace(shape, 7)
	if len(a.Entities) != shape.IPs {
		t.Fatalf("%d entities, want %d", len(a.Entities), shape.IPs)
	}
	for i := range a.Entities {
		ea, eb := a.Entities[i], b.Entities[i]
		if ea.Name != eb.Name || len(ea.Counts) != len(eb.Counts) {
			t.Fatalf("entity %d differs between two runs of seed 7", i)
		}
		for k, v := range ea.Counts {
			if eb.Counts[k] != v {
				t.Fatalf("entity %s cookie %s differs between two runs of seed 7", ea.Name, k)
			}
		}
	}
}
