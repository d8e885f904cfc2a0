// Package scan is the sharded, parallel scan engine behind every sweep in
// the reproduction: the large virtual-address sweeps (kernel base, module
// region, Windows 2^18-slot region, the fused user-space fine scan, the
// AMD walk-termination sweep) and the temporal sweep of the §IV-E attacks
// (the behavior spy's ticks, which the app fingerprinter votes on), whose
// probe axis is time rather than address.
//
// # Architecture
//
// The engine is generic over the verdict type V: a sweep produces one
// verdict per probed index — a mapped/unmapped bool, a permission class,
// a "walk reaches a PT" bool, a whole spy-tick observation record — plus
// the raw decision measurement. Any probe whose outcome reduces to a
// comparable verdict can be sharded by wrapping its probing context in a
// Worker[V].
//
// The probe index is an abstract counter, not necessarily an address:
// address sweeps read index i as the VA start + i*stride, and the temporal
// sweep reads it as tick i of the observation window, replaying the
// victim's deterministic event timeline for that tick before probing (see
// core's spyWorker and behavior.Driver.ReplayWindow). Chunks of ticks
// parallelize exactly like chunks of pages because a tick's outcome is a
// pure function of (victim image, driver schedule, tick index, chunk noise
// stream).
//
// A scan partitions its probe index range [0, n) into fixed-size chunks
// and fans the chunks out across N worker goroutines through a
// work-stealing counter. Each worker owns a private probing context (in
// the simulator: a machine.Machine replica sharing the victim's address
// spaces copy-on-read, with private TLB/PSC/PTE-line/counter/noise state —
// see Machine.Clone), so workers never contend on shared mutable state.
//
// # Worker contract
//
// A Worker is three calls: Start resets it for one chunk, ProbeChunk
// probes the chunk, Elapsed reports the simulated cycles the chunk cost.
// The engine hands ProbeChunk the chunk's index range and the
// preallocated per-shard windows of the shared result slices, and the
// worker writes verdicts and measurements straight into them. There is
// no per-index path: the core workers feed each chunk to
// their prober's batch window (one masked-op slice for
// machine.MeasureBatch, so op plumbing and reduction setup are paid once
// per chunk, and all scratch lives on the pooled prober, so a steady-state
// sweep allocates nothing per probe), and the temporal worker loops over
// its chunk's ticks. Healing goes only through Healer: the engine hands
// each disagreeing index, with its first-pass outcome, to the worker's
// HealProbe. Single-measurement sweeps merge the minimum of the re-probes
// with the first-pass value and re-classify; a sweep with healing enabled
// and a worker without HealProbe is a programming error the engine
// panics on.
//
// A verdict need not come from a single measurement: the fused §IV-F user
// scan probes each chunk twice (a load sub-pass over every page, then a
// store sub-pass over the pages the loads read as mapped) and emits one
// PermClass verdict per VA from the pair — one sweep where two serialized
// sweeps used to run. Its HealProbe re-derives the two-channel verdict
// instead of min-merging a single cycles value, and it draws each
// sub-pass's noise from its own chunk-seeded stream (machine.SwapNoise),
// so a page's store noise does not depend on how many earlier pages were
// mapped.
//
// # Zero-allocation temporal path
//
// The temporal sweep runs thousands of ticks per observation window, and
// every tick replays victim events and probes every target's leading
// pages — so the per-tick path is held to a zero-allocation steady state
// (alloc-guard tests in core pin it). Three ownership rules make it hold:
//
//  1. Walk scratch belongs to the machine the events run on. A victim
//     event (machine.KernelTouch) page-walks with its machine's own
//     reusable visited buffer, never a shared one — so a driver replaying
//     disjoint windows on N worker replicas (behavior.Driver.ReplayWindow,
//     which is stateless by contract) touches N private scratches and
//     stays replica-safe without locks or allocation.
//  2. Probe scratch belongs to the (pooled) prober. A tick's per-target
//     page sweep goes through one batched TLB probe into prober-owned
//     measurement windows.
//  3. The fan-out allocates per scan, not per worker. Engine.Scan spawns
//     its shard goroutines from one shared closure with no arguments (each
//     goroutine picks its worker off a shared atomic index), so the spawn
//     loop itself contributes nothing per worker; what remains per worker
//     is the wrapper struct its factory builds.
//
// # Worker pool
//
// Creating a worker is the expensive part of a scan (Machine.Clone builds
// the replica's TLB, paging-structure and PTE-line caches). The engine
// leaves replica reuse to its Factory: core.ScanPool is a persistent free
// list of calibrated prober replicas shared by every scan in a session.
// The core's factories draw replicas from it and return them after the
// merge, and a reused replica is re-synced to its current parent with
// Machine.Rebind (structure reuse, zero allocations) instead of
// re-cloned, so batch scratch buffers survive across scans too.
// Concurrent scans may share one pool; each replica is handed to exactly
// one scan at a time.
//
// # Determinism
//
// Output is bit-identical for a fixed seed regardless of worker count,
// scheduling, or replica history (new or reused). Two rules make that
// hold:
//
//  1. Per-chunk state reset. Worker.Start is called before each chunk with
//     a seed derived only from (engine seed, chunk index); the worker
//     resets its translation caches and reseeds its noise stream, so a
//     chunk's measurements depend only on the chunk, never on which worker
//     ran it, what it probed before, or which earlier scans it served.
//  2. Deterministic merge. Workers write results into disjoint index ranges
//     of the shared output slices; simulated-cycle totals are summed with
//     commutative integer addition; and the healing pass runs
//     single-threaded in ascending index order on its own seeded stream
//     after the merge.
//
// The healing pass (the paper's second pass) re-probes, through the
// worker's HealProbe, every index whose verdict disagrees with a neighbour — both isolated flips
// (an interrupt spike splitting a run in two) and run edges (a spike
// silently shortening a run, which breaks exact-run-length signatures).
// The sweeps whose true signal is isolated singletons — the AMD 4 KiB-slot
// sweep — and the temporal sweep disable it with Config.HealSamples < 0.
//
// The per-chunk reset is a simulator-level operation (no attacker time is
// charged): sharding models a faster host, not a different attack.
package scan
