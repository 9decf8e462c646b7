// Wall-clock stopwatch used by the benchmark harnesses (Fig. 16-18) and the
// OD phase breakdown (Fig. 17: OI / JC / MC).
#pragma once

#include <chrono>

namespace pcde {

/// \brief Simple monotonic stopwatch. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulates time across multiple start/stop phases; used for the
/// Fig. 17 run-time breakdown of the OD estimator.
class PhaseTimer {
 public:
  void Start() { watch_.Restart(); running_ = true; }
  void Stop() {
    if (running_) {
      total_seconds_ += watch_.ElapsedSeconds();
      running_ = false;
    }
  }
  void Reset() { total_seconds_ = 0.0; running_ = false; }
  double total_seconds() const { return total_seconds_; }
  double total_millis() const { return total_seconds_ * 1e3; }

 private:
  Stopwatch watch_;
  double total_seconds_ = 0.0;
  bool running_ = false;
};

/// RAII guard that stops a PhaseTimer when leaving scope.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseTimer* timer) : timer_(timer) {
    if (timer_ != nullptr) timer_->Start();
  }
  ~ScopedPhase() {
    if (timer_ != nullptr) timer_->Stop();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* timer_;
};

}  // namespace pcde
