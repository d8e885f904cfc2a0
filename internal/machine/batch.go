package machine

import (
	"repro/internal/avx"
	"repro/internal/paging"
)

// This file is the probe surface of the machine that every core probe goes
// through: a prober hands a slice of masked ops down here — a whole scan
// chunk, or one op for a per-VA probe — and gets back one timed sample per
// measured execution.
//
// The batch ≡ loop contract: the ops execute strictly in slice order
// through ExecMasked's executor, and each measured execution becomes a
// sample through the same measured step as Measure, so a batch leaves
// every sample, clock tick, noise draw, performance counter, TLB, PSC and
// PTE-line entry, LRU stamp and cache clock exactly as the equivalent
// one-op-at-a-time ExecMasked/Measure loop does, at any batch boundary.
// Batching buys host time, never different results:
//
//   - Op plumbing and scratch reuse are paid once per batch, and each
//     execution writes its result in place.
//   - The repeat-probe rule. Between two executions of the same op, a
//     batch runs only the measured step (noise and clock) or, in
//     MeasureEvictedBatch, the op's targeted eviction. Neither adds a TLB
//     entry or changes a page table: the eviction only removes entries.
//     So if the first execution was of a single page whose translation
//     missed both TLB levels and installed nothing, the lookup of the
//     second must miss too, and its walk must read what the first read.
//     The executor is told so (exec's again); it then ticks the TLB
//     clocks exactly as the missing lookup would and reuses the walk. The
//     paging-structure-cache lookup and fill, the PTE-line touches and
//     their costs depend on state the first execution changed, so they
//     are redone as normal.
//
// TestMeasureBatchMatchesLoop and TestMeasureEvictedBatchMatchesLoop hold
// both batches to the loop, snapshot for snapshot.

// MeasureBatch runs the double-execution probe sequence for every op in
// ops: warmups unmeasured executions, then samples measured executions
// (the lfence;rdtsc bracket of Measure), writing the measured cycle values
// to out op-major — out[i*samples+s] is op i's sample s; len(out) must be
// >= len(ops)*samples. Returns the number of measured executions that
// delivered a fault.
//
// The sequence per op — and therefore every TLB fill, counter update,
// noise draw and clock charge — is identical to
//
//	for w := 0; w < warmups; w++ { m.ExecMasked(op) }
//	for s := 0; s < samples; s++ { m.Measure(op) }
func (m *Machine) MeasureBatch(ops []avx.Op, warmups, samples int, out []float64) (faults int) {
	var r Result
	oi := 0
	for _, op := range ops {
		for w := 0; w < warmups; w++ {
			m.exec(op, &r, w > 0)
		}
		for s := 0; s < samples; s++ {
			m.exec(op, &r, warmups+s > 0)
			if r.Faulted {
				faults++
			}
			out[oi] = m.measured(r.Cycles)
			oi++
		}
	}
	return faults
}

// MeasureEvictedBatch runs the targeted-eviction probe sequence of the AMD
// walk-termination attack for every op in ops: samples repetitions of
// { EvictTranslation(op.Addr); Measure(op) }, writing the measured cycle
// values to out op-major — out[i*samples+s] is op i's sample s; len(out)
// must be >= len(ops)*samples. Returns the number of measured executions
// that delivered a fault.
//
// The state mutations, noise draws and clock charges per sample are
// identical to the equivalent per-VA loop
//
//	for s := 0; s < samples; s++ {
//		m.EvictTranslation(va)
//		m.Measure(op)
//	}
//
// One loop-invariant cost is hoisted per op: the eviction's page-table
// walk — the walk is a pure read of the (scan-immutable) address space, so
// one walk's frame list serves all of a VA's samples; only its eviction
// side effects and attacker cost repeat per sample.
func (m *Machine) MeasureEvictedBatch(ops []avx.Op, samples int, out []float64) (faults int) {
	var r Result
	oi := 0
	for _, op := range ops {
		w := &m.evictWalk
		m.UserAS.TranslateTo(paging.PageBase(op.Addr, paging.Page4K), w)
		for s := 0; s < samples; s++ {
			m.evictWalkLines(op.Addr, w.Visited)
			m.exec(op, &r, s > 0)
			if r.Faulted {
				faults++
			}
			out[oi] = m.measured(r.Cycles)
			oi++
		}
	}
	return faults
}
