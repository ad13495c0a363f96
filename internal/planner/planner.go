// Package planner holds only a placeholder type that the benchmark of
// record (perfbench) still passes to shard.Set.SetPlanner. The online
// index runs one candidate-generation strategy, the prefix-filter
// inverted index, so there is nothing to plan. Delete the package once
// perfbench drops that call.
package planner

// Heuristic is an empty placeholder. It stays only until perfbench
// stops passing it to shard.Set.SetPlanner, which ignores it.
type Heuristic struct{}
