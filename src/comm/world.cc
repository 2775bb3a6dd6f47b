#include "comm/world.h"

#include "support/check.h"

namespace chimera::comm {

World::World(int size) : size_(size) {
  CHIMERA_CHECK(size >= 1);
  boxes_.reserve(size);
  for (int i = 0; i < size; ++i) boxes_.push_back(std::make_unique<Mailbox>());
}

Communicator::Communicator(World& world, int rank)
    : world_(&world), rank_(rank) {
  CHIMERA_CHECK_MSG(rank >= 0 && rank < world.size(),
                    "communicator for rank " << rank << " outside a world of "
                                             << world.size());
}

void Communicator::send(int dst, std::int64_t tag, Tensor payload) {
  CHIMERA_CHECK_MSG(dst >= 0 && dst < world_->size(), "send to rank " << dst);
  World::Mailbox& box = *world_->boxes_[dst];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.emplace(World::Key{rank_, tag}, std::move(payload));
  }
  box.cv.notify_all();
}

Tensor Communicator::recv(int src, std::int64_t tag) {
  // Checked before the wait: a receive from a rank that does not exist
  // would otherwise block forever.
  CHIMERA_CHECK_MSG(src >= 0 && src < world_->size(), "recv from rank " << src);
  World::Mailbox& box = *world_->boxes_[rank_];
  std::unique_lock<std::mutex> lock(box.mutex);
  const World::Key key{src, tag};
  auto it = box.messages.end();
  // One lookup per wakeup: the predicate's hit is reused after the wait.
  box.cv.wait(lock, [&] {
    it = box.messages.find(key);
    return it != box.messages.end();
  });
  Tensor out = std::move(it->second);
  box.messages.erase(it);
  return out;
}

std::int64_t Communicator::collective_tag(std::int64_t context) {
  // High bits: context; low bits: per-context sequence. Keeps collective
  // traffic disjoint from user tags (which must be non-negative and fit in
  // the user range by convention: callers use tags ≥ 0 < 2^40). Each
  // collective reserves a block of 2^12 consecutive tags for its internal
  // rounds, so sequences advance in that stride.
  const std::int64_t seq = seq_[context]++;
  return -((context * (1ll << 24) + seq + 1) << 12);
}

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    wait();
    thread_ = std::move(other.thread_);
  }
  return *this;
}

Request::~Request() { wait(); }

void Request::wait() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace chimera::comm
