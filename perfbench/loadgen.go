package main

// The open-loop load generator. Every operation has a due time fixed
// before the phase starts; each connection works through its own
// operations in due order, sending each one at its due time or as soon
// as the connection is free. Latency is measured from the due time, so
// a stall also charges the requests queued behind it.

import (
	"context"
	"sync"
	"syscall"
	"time"
)

// Scheduled is one operation of a phase: when it is due (offset from the
// phase start), which connection carries it, and what it is.
type Scheduled struct {
	Due  time.Duration
	Conn int
	Op   *Op
}

// Outcome is what happened to one scheduled operation.
type Outcome struct {
	Op     *Op
	Due    time.Duration
	Sent   time.Duration // offset from phase start; -1 if never sent
	Done   time.Duration
	Status int
	Body   []byte
	Err    error
}

// Latency is the time from due to completion.
func (o *Outcome) Latency() time.Duration { return o.Done - o.Due }

// Lag is how late the operation was sent.
func (o *Outcome) Lag() time.Duration { return o.Sent - o.Due }

// Sender performs one operation on one connection.
type Sender func(ctx context.Context, conn int, op *Op) (status int, body []byte, err error)

// PhaseResult summarizes one open-loop phase.
type PhaseResult struct {
	Outcomes []Outcome // in schedule order
	// Span is the scheduled length of the phase (the last due time).
	Span time.Duration
	// BacklogEnd counts operations due before the end of the schedule
	// that had not been sent by then.
	BacklogEnd int
	// Abandoned counts operations still unsent when the drain deadline
	// passed; they are reported as failures.
	Abandoned int
}

// errAbandoned marks operations the drain deadline cut off.
type errAbandoned struct{}

func (errAbandoned) Error() string { return "abandoned: not sent before the drain deadline" }

// RunOpenLoop runs a schedule over conns connections. Operations are
// sent no earlier than their due time; ones still unsent drain after
// the schedule ends for at most drain before they are abandoned.
func RunOpenLoop(sched []Scheduled, conns int, send Sender, drain time.Duration) PhaseResult {
	res := PhaseResult{Outcomes: make([]Outcome, len(sched))}
	if len(sched) == 0 {
		return res
	}
	res.Span = sched[len(sched)-1].Due
	perConn := make([][]int, conns)
	for i, s := range sched {
		perConn[s.Conn%conns] = append(perConn[s.Conn%conns], i)
		res.Outcomes[i] = Outcome{Op: s.Op, Due: s.Due, Sent: -1}
	}
	start := time.Now()
	deadline := res.Span + drain
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(deadline))
	defer cancel()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range perConn[c] {
				o := &res.Outcomes[i]
				if wait := o.Due - time.Since(start); wait > 0 {
					sleepPrecise(wait)
				}
				now := time.Since(start)
				if now > deadline {
					o.Err = errAbandoned{}
					continue
				}
				o.Sent = now
				o.Status, o.Body, o.Err = send(ctx, c, o.Op)
				o.Done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Due < res.Span && (o.Sent < 0 || o.Sent > res.Span) {
			res.BacklogEnd++
		}
		if _, ok := o.Err.(errAbandoned); ok {
			res.Abandoned++
		}
	}
	return res
}

// sleepPrecise blocks the calling thread in nanosleep. The runtime's
// timers wake a mostly idle process up to a millisecond late, which
// would show up as generator lag on every request; nanosleep wakes
// within about 0.1 ms.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// Schedule spaces n operations evenly at rate per second, starting one
// interval after the phase start.
func Schedule(ops []*Op, rate float64) []Scheduled {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]Scheduled, len(ops))
	for i, op := range ops {
		out[i] = Scheduled{Due: time.Duration(i+1) * interval, Conn: op.Conn, Op: op}
	}
	return out
}
