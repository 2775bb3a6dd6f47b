// Request plumbing shared by the serving and decode engines: recoverable
// validation and the latency clock.
//
// A malformed request (wrong length, out-of-vocabulary token) is the
// *caller's* bug, not an engine invariant violation: rejecting it must not
// take down the engine — or the co-batched requests of every other caller —
// the way a CHIMERA_CHECK firing on a rank thread mid-round would. Both
// engines therefore validate at submit()/admission time, on the caller's
// thread, and throw RequestError: catch it, fix the request, and the engine
// keeps serving. CheckError remains what it always was: an internal
// invariant failed and the process state is suspect.
#pragma once

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace chimera::rt {

/// Thrown by ServingEngine::submit / DecodeEngine::submit when a request is
/// malformed or admission control rejects it. Always recoverable: the
/// engine's state is untouched and other requests are unaffected.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(const std::string& what) : std::runtime_error(what) {}
};

/// Shared admission validation: `tokens.size()` must lie in
/// [min_len, max_len] and every id inside [0, vocab). Serving passes
/// min_len = max_len = model.seq (fixed-shape rounds); decode admits
/// variable lengths up to the model's context. Throws RequestError.
inline void validate_tokens(const std::vector<int>& tokens, int min_len,
                            int max_len, int vocab) {
  const int n = static_cast<int>(tokens.size());
  if (n < min_len || n > max_len)
    throw RequestError("request has " + std::to_string(n) +
                       " tokens, engine accepts " + std::to_string(min_len) +
                       (min_len == max_len
                            ? ""
                            : ".." + std::to_string(max_len)));
  for (int t : tokens)
    if (t < 0 || t >= vocab)
      throw RequestError("request token " + std::to_string(t) +
                         " outside vocab of " + std::to_string(vocab));
}

/// Microsecond clock of the request stamps (enqueue, first token, done):
/// `fake` when set — the ServeOptions / DecodeOptions::clock test hook —
/// else monotonic time since construction.
class EngineClock {
 public:
  explicit EngineClock(std::function<long()> fake)
      : fake_(std::move(fake)), epoch_(std::chrono::steady_clock::now()) {}

  long now_us() const {
    if (fake_) return fake_();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  std::function<long()> fake_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace chimera::rt
