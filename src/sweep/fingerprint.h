// Fingerprints the campaign journals and stores are keyed on. The topology
// fingerprint lives in core/fingerprint.h so the binary `.graph` store
// (core/serialize) can embed it without the core → sweep dependency
// inversion; sweep/leak/fail callers keep the flatnet::sweep spelling.
#ifndef FLATNET_SWEEP_FINGERPRINT_H_
#define FLATNET_SWEEP_FINGERPRINT_H_

#include <cstdint>

#include "core/fingerprint.h"

namespace flatnet::sweep {

using flatnet::TopologyFingerprint;

// One FNV-1a step over the 8 little-endian bytes of `value`; the leak and
// failure campaign fingerprints chain it over their inputs, starting from
// the FNV-1a offset basis 14695981039346656037.
inline std::uint64_t Fnv1aMix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace flatnet::sweep

#endif  // FLATNET_SWEEP_FINGERPRINT_H_
