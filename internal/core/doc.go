// Package core implements the paper's contribution: the AVX timing
// side-channel attack framework against User and Kernel ASLR.
//
// The framework is built from three attack primitives (§III-C), all of
// which rely on masked-operation fault suppression (P1):
//
//   - the page-table attack (Prober.ProbeMapped / Prober.ProbeTermLevel)
//     distinguishes mapped from unmapped pages (P2) or leaks the
//     page-table level where the walk terminates (P3);
//   - the TLB attack (Prober.ProbeTLB) distinguishes TLB hits from misses
//     for kernel translations (P4);
//   - the permission attack (Prober.ProbePerm) classifies page
//     permissions with paired masked-load/masked-store probes (P5).
//
// Each primitive has one probing path. A per-VA probe (ProbeMapped,
// ProbeMappedStore, ProbeTLB, ProbeTermLevel) is its batch window over a
// single index — the same window every scan chunk runs over many indices
// (probeBatchWindow, ProbeTLBBatch, probeTermBatchWindow) — with its own
// one-element result windows, so a per-VA probe and a sweep cannot drift
// apart. reference_test.go holds one-op-at-a-time probe loops over
// machine.Measure as the differential reference for both.
//
// On top of the primitives, the package provides the end-to-end attacks the
// paper evaluates: KernelBase (§IV-B), Modules (§IV-C), KPTIBreak (§IV-D),
// BehaviorSpy and the AppFingerprinter that votes on its ticks (§IV-E),
// UserScan/LibraryFingerprint incl. SGX (§IV-F),
// WindowsKernel/KVASBreak (§IV-G) and the cloud scenarios (§IV-H), plus the
// n-trial evaluation harness behind Table I.
//
// Everything here uses only the attacker-visible machine surface: timed
// masked operations, mmap/munmap of the attacker's own pages, TLB eviction
// buffers, and syscalls.
package core
