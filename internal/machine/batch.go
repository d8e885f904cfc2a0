package machine

import (
	"repro/internal/avx"
	"repro/internal/paging"
)

// This file is the probe surface of the machine that every core probe goes
// through: a prober hands a slice of masked ops down here — a whole scan
// chunk, or one op for a per-VA probe — and gets back one timed sample per
// measured execution. The ops execute strictly in slice order through
// ExecMasked, and each measured execution becomes a sample through the same
// measured step as Measure, so a batch is bit-identical to the equivalent
// one-op-at-a-time Measure loop at any batch boundary: batching buys host
// time (op plumbing and scratch reuse are paid once per batch), never
// different results.

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
	oi := 0
	for _, op := range ops {
		for w := 0; w < warmups; w++ {
			m.ExecMasked(op)
		}
		for s := 0; s < samples; s++ {
			r := m.ExecMasked(op)
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
	oi := 0
	for _, op := range ops {
		// The eviction walk, hoisted: EvictTranslation re-walks per call,
		// but within one scan the walk result cannot change. A dedicated
		// scratch buffer keeps ExecMasked's own translations (which share
		// m.visitBuf) from clobbering the hoisted frame list mid-loop.
		w := m.UserAS.Translate(paging.PageBase(op.Addr, paging.Page4K), m.evictBuf)
		m.evictBuf = w.Visited
		for s := 0; s < samples; s++ {
			m.evictWalkLines(op.Addr, w.Visited)
			r := m.ExecMasked(op)
			if r.Faulted {
				faults++
			}
			out[oi] = m.measured(r.Cycles)
			oi++
		}
	}
	return faults
}
