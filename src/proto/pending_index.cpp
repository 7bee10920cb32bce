#include "src/proto/pending_index.h"

#include <algorithm>
#include <bit>

namespace micropnp {

PendingIndex::PendingIndex(size_t max_entries) {
  const size_t capacity = std::bit_ceil(std::max<size_t>(16, max_entries * 2));
  cells_.resize(capacity);
  mask_ = capacity - 1;
}

size_t PendingIndex::Probe(const Ip6Address& peer, uint16_t sequence) const {
  size_t i = Home(peer, sequence);
  while (cells_[i].value != 0 &&
         (cells_[i].sequence != sequence || cells_[i].peer != peer)) {
    i = (i + 1) & mask_;
  }
  return i;
}

bool PendingIndex::Insert(const Ip6Address& peer, uint16_t sequence, uint64_t value) {
  if (value == 0 || size_ >= cells_.size() - 1) {
    return false;  // keep at least one empty cell so probes terminate
  }
  const size_t i = Probe(peer, sequence);
  if (cells_[i].value != 0) {
    return false;  // already present
  }
  cells_[i] = Cell{peer, value, sequence};
  ++size_;
  return true;
}

uint64_t PendingIndex::Find(const Ip6Address& peer, uint16_t sequence) const {
  // Most lookups on a Thing hit an empty index: skip the hash and the probe.
  return size_ == 0 ? 0 : cells_[Probe(peer, sequence)].value;
}

bool PendingIndex::Erase(const Ip6Address& peer, uint16_t sequence) {
  if (size_ == 0) {
    return false;
  }
  size_t i = Probe(peer, sequence);
  if (cells_[i].value == 0) {
    return false;
  }
  // Backward-shift deletion: close the gap by moving down any later entry in
  // the probe chain whose home position permits it, so chains stay dense and
  // no tombstones accumulate.
  size_t j = i;
  for (;;) {
    cells_[i].value = 0;
    for (;;) {
      j = (j + 1) & mask_;
      if (cells_[j].value == 0) {
        --size_;
        return true;
      }
      const size_t home = Home(cells_[j].peer, cells_[j].sequence);
      // Skip entries whose home lies cyclically within (i, j]: moving them
      // to i would place them before their home.
      const bool home_in_gap = i <= j ? (i < home && home <= j) : (i < home || home <= j);
      if (!home_in_gap) {
        break;
      }
    }
    cells_[i] = cells_[j];
    i = j;
  }
}

}  // namespace micropnp
