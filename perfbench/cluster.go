package main

// The benchmark's model of a cluster under writes, and the end-of-run
// checks against it: every replica's copy of every written entity, and
// user-visible answers through the router over the final state.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"vsmartjoin"
)

// Model tracks the last acknowledged write of every entity. All writes
// to one entity travel on one connection, so acknowledgements arrive in
// send order and the last one is the entity's final state.
type Model struct {
	state     map[string]map[string]uint32 // present entities
	written   map[string]bool
	uncertain map[string]bool // a write failed: its outcome is unknown
}

func newModel(tr *Trace) *Model {
	m := &Model{
		state:     make(map[string]map[string]uint32, len(tr.Entities)),
		written:   make(map[string]bool),
		uncertain: make(map[string]bool),
	}
	for _, e := range tr.Entities {
		m.state[e.Name] = e.Counts
	}
	return m
}

// Apply records a write's outcome.
func (m *Model) Apply(op *Op, acked bool) {
	m.written[op.Entity] = true
	if !acked {
		m.uncertain[op.Entity] = true
		return
	}
	if op.Kind == OpRemove {
		delete(m.state, op.Entity)
	} else {
		m.state[op.Entity] = op.Counts
	}
}

// verifyCluster waits for the router's repair backlog to drain, then
// compares every replica's copy of every written entity with the model
// (returning how many entities diverge on some replica) and checks a
// sample of pool queries through the router against the oracle over
// the final state; wrong answers are failures.
func verifyCluster(dep *Deployment, stream *Stream, model *Model, t *Tally) (int, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st vsmartjoin.ClusterStats
		if _, err := getJSON(dep.Control, "http://"+dep.Front.Addr+"/stats", &st); err != nil {
			return 0, fmt.Errorf("router stats: %w", err)
		}
		if st.RepairBacklog == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	diverged := 0
	for name := range model.written {
		if model.uncertain[name] {
			continue
		}
		want, present := model.state[name]
		for _, d := range dep.Nodes[vsmartjoin.PartitionOfEntity(name, len(dep.Nodes))] {
			var got struct {
				Elements map[string]uint32 `json:"elements"`
			}
			status, err := getJSON(dep.Control, "http://"+d.Addr+"/entity?name="+url.QueryEscape(name), &got)
			if err != nil && status != http.StatusNotFound {
				return 0, fmt.Errorf("replica entity: %w", err)
			}
			if present != (status == http.StatusOK) || (present && !maps.Equal(want, got.Elements)) {
				diverged++
				break
			}
		}
	}

	orc := NewOracle(entitiesOf(model.state))
	expect := NewExpect(orc, stream.Pool)
	sender := httpSender(dep.Front.Addr)
	rng := rand.New(rand.NewSource(int64(len(model.written))))
	for i := 0; i < verifyQueries; i++ {
		qi := rng.Intn(len(stream.Pool))
		op := &Op{Kind: stream.Pool[qi].Kind, Query: qi, Path: queryPath(stream.Pool[qi].Kind), Body: stream.Pool[qi].Body}
		status, body, err := sender(context.Background(), 0, op)
		ok := err == nil && status == http.StatusOK
		if ok {
			ok, _ = expect.Check(qi, body)
			var got Reply
			_ = json.Unmarshal(body, &got) // a bad body already failed Check
			if !ok && (touchesUncertain(got, model) || touchesUncertain(expect.For(qi), model)) {
				continue
			}
		}
		t.Add(ok)
	}
	return diverged, nil
}

// verifyQueries is how many pool queries are checked through the router
// after the load stops.
const verifyQueries = 300

// touchesUncertain reports whether a reply names an entity whose final
// state is unknown because a write to it failed (already counted).
func touchesUncertain(r Reply, m *Model) bool {
	for _, x := range r.Matches {
		if m.uncertain[x.Entity] {
			return true
		}
	}
	for _, x := range r.Neighbors {
		if m.uncertain[x.Entity] {
			return true
		}
	}
	return false
}
