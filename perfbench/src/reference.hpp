// reference.hpp — how fast the host runs at the moment, from a fixed kernel.
//
// On a shared host the same code runs at a different speed from one minute
// to the next (neighbours' load, clock frequency, contended caches), and
// every number the benchmark measures moves with it: on a 4-vCPU VM the
// host switched between two speeds 1.6x apart within single runs. So each
// gated CPU-time measurement is bracketed by two timings of a fixed
// reference kernel, which calls nothing in stordep, and scaled by their
// mean over kReferenceNominalSeconds: it then reads as if measured on a
// host of reference speed. A change to the program moves the scaled value
// exactly as much as the raw one; a change of host speed moves the raw
// value and the kernel together.
#pragma once

#include <functional>

namespace perfbench {

/// The reference speed: the one at which the kernel takes 1 ms of CPU. A
/// 4-vCPU Xeon VM ran it in 0.75-1.3 ms.
constexpr double kReferenceNominalSeconds = 1e-3;

/// Runs `body` and returns the host's slowdown while it ran: the reference
/// kernel's CPU time just before and just after, averaged, over
/// kReferenceNominalSeconds. About 1 at the reference speed, below 1 on a
/// faster host.
double slowdownAround(const std::function<void()>& body);

}  // namespace perfbench
