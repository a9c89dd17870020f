// The host-speed reference: a fixed piece of work, built into the benchmark
// and never into the simulator, timed between the measured runs so that the
// host times can be stated at one nominal host speed.
//
// The host this benchmark runs on changes speed by up to a fifth for
// minutes at a time, on every workload at once (perfbench/README.md,
// "Host-speed reference").  The reference slice does the same kind of work
// as the simulator's hot paths: a binary-heap event queue dispatching onto
// an arena of linked objects, a priority queue, an ordered map and virtual
// calls across many classes.  Its time follows the drift closely, and since
// no change to src/ can alter it, the ratio of a measured time to it moves
// only when the program does.

#pragma once

namespace perfbench {

/// Host seconds the reference slice takes on the nominal host.  A run's
/// host times are reported as measured seconds x kNominalReferenceS / the
/// mean of the slices timed around that run.
constexpr double kNominalReferenceS = 0.1;

/// Runs one reference slice (a fixed, deterministic amount of work of about
/// a tenth of a second, a few MiB of memory) and returns its host seconds.
double reference_slice();

}  // namespace perfbench
