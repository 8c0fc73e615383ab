// Package interval holds the simulation's time type. The lifetime
// tracker, the dataflow graph, the MB-AVF engine and the policy model
// count cycles in it.
package interval

// Cycle is a simulation time stamp. Cycle 0 is the first simulated cycle.
type Cycle = uint64
