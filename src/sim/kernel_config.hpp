#pragma once

/// Kernel selection knobs, shared by scenario params and SystemConfig.
/// Lives apart from sim/parallel.hpp so configs don't drag in <thread>.
namespace et::sim {

struct KernelConfig {
  /// Run the simulation on the parallel tiled kernel (sim/parallel.hpp).
  /// Implies canonical event order.
  bool use_parallel_kernel = false;
  /// Use the canonical (time, owner, seq) event order on the serial kernel.
  /// This is the serial oracle the parallel kernel is bit-exact against;
  /// off (default) keeps the legacy (time, FIFO) order byte-identical to
  /// the seed.
  bool canonical_order = false;
  /// Busy threads of the parallel kernel's tile phase, the master
  /// included: `threads` k runs k-1 pool workers plus the master.
  unsigned threads = 4;
  /// Spatial tiles per thread (more tiles -> finer load balance, more
  /// barrier bookkeeping). Tile count is threads * tiles_per_thread.
  unsigned tiles_per_thread = 1;

  bool canonical() const { return use_parallel_kernel || canonical_order; }
};

}  // namespace et::sim
