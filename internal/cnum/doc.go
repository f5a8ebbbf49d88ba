// Package cnum provides an interning table for complex edge weights used by
// decision diagrams.
//
// Decision-diagram canonicity requires that numerically equal (within a
// tolerance) complex values are represented by the same object, so that node
// equality can be decided by pointer comparison. The design follows the
// complex-number tables of Zulehner, Hillmich, and Wille ("How to efficiently
// handle complex values? Implementing decision diagrams for quantum
// computing", ICCAD 2019): values are bucketed on a tolerance grid and looked
// up before insertion.
//
// Each decision-diagram manager owns one Table, used from one goroutine, so
// the table takes no locks. The cell map is split into a few plain maps,
// which measured faster than one map on long circuits. Lookup/hit counters
// are atomic so observers may read them while the owner interns.
//
// Every interned Value carries a stable 64-bit hash derived from its
// tolerance-grid cell (Value.Hash): equal weights hash equally in every
// table at the same tolerance, independent of interning order. The dd
// package combines these with node ids to key its unique tables and compute
// caches, keeping all hashing independent of pointer values and therefore
// deterministic across runs and worker counts. Values are allocated from
// chunks to cut per-value allocations. The table also tracks lookup/hit
// counters and a peak size (Stats, Peak), which sim surfaces per run as
// weight-table pressure.
package cnum
