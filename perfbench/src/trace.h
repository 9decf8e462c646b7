// In-memory span recorder of the traced mode, plus the few measurement
// helpers the benchmark shares (clocks, host steal, nearest-rank
// percentile, peak RSS).
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The host's steal time is not in it
/// (paravirtual steal accounting), nor is time spent blocked.
inline int64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// The guest kernel's CPU accounting, summed over all CPUs, in clock ticks:
/// time spent running (user, nice, system, irq, softirq) and time the host
/// stole from running vCPUs. Zero when /proc/stat cannot be read.
struct CpuAccount {
  uint64_t busy = 0;
  uint64_t steal = 0;
};

inline CpuAccount ReadCpuAccount() {
  CpuAccount account;
  FILE* in = std::fopen("/proc/stat", "r");
  if (in == nullptr) return account;
  unsigned long long user, nice, system, idle, iowait, irq, softirq, steal;
  if (std::fscanf(in, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) == 8) {
    account.busy = user + nice + system + irq + softirq;
    account.steal = steal;
  }
  std::fclose(in);
  return account;
}

/// Seconds stolen per second run, between two readings. The host steals
/// from vCPUs that are running, so a thread that ran `cpu` seconds (thread
/// CPU clock, which leaves the steal out) lost about `cpu` times this.
inline double StealPerRunSecond(const CpuAccount& before,
                                const CpuAccount& after) {
  const uint64_t busy = after.busy - before.busy;
  if (busy == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(busy);
}

/// Wall time of an interval less what the host stole from a thread that
/// ran `cpu_s` of it: the interval's length on a dedicated CPU. Time the
/// thread spent blocked, on a lock or on I/O, stays in.
inline double WallLessSteal(double wall_s, double cpu_s, double steal_ratio) {
  return std::max(cpu_s, wall_s - cpu_s * steal_ratio);
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts its argument.
template <typename T>
double Percentile(std::vector<T>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return static_cast<double>((*values)[std::min(index, values->size() - 1)]);
}

inline double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One recorded span. `parent` is the id of the span that caused it (0 for
/// a root); spans of one request share `request` (0 outside requests).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Number and summed duration of the spans of one name.
struct SpanTotal {
  uint64_t count = 0;
  double seconds = 0.0;
};

/// Records spans in memory and writes them out once, at exit. Each thread
/// records into its own Lane, so recording takes no lock. Every span is
/// kept; a deque grows without copying what it holds.
class Tracer {
 public:
  class Lane {
   public:
    uint64_t NewId() { return base_ + ++last_id_; }
    void Add(uint64_t id, uint64_t parent, uint64_t request, const char* name,
             int64_t start_ns, int64_t end_ns) {
      spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
    }

   private:
    friend class Tracer;
    explicit Lane(uint64_t base) : base_(base) {}
    uint64_t base_;
    uint64_t last_id_ = 0;
    std::deque<Span> spans_;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new lane for the calling thread; the pointer stays valid for the
  /// tracer's lifetime.
  Lane* NewLane() {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(Lane(static_cast<uint64_t>(lanes_.size() + 1) << 40));
    return &lanes_.back();
  }

  /// Count and summed duration of the recorded spans, by name. Call it
  /// once the recording threads have finished.
  std::map<std::string, SpanTotal> Totals() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, SpanTotal> totals;
    for (const Lane& lane : lanes_) {
      for (const Span& s : lane.spans_) {
        SpanTotal& t = totals[s.name];
        ++t.count;
        t.seconds += SecondsBetween(s.start_ns, s.end_ns);
      }
    }
    return totals;
  }

  /// Writes every span as one tab-separated line: id, parent, request,
  /// name, start_ns, end_ns. Returns false when the file cannot be written.
  bool Write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const Lane& lane : lanes_) {
      for (const Span& s : lane.spans_) {
        std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(out) == 0;
  }

 private:
  std::mutex mutex_;
  std::deque<Lane> lanes_;  // deque: lane addresses stay stable
};

/// Records one span on `lane` around its own lifetime; records nothing when
/// `lane` is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane* lane, uint64_t parent, const char* name)
      : lane_(lane),
        parent_(parent),
        name_(name),
        id_(lane != nullptr ? lane->NewId() : 0),
        start_ns_(NowNs()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->Add(id_, parent_, 0, name_, start_ns_, NowNs());
  }
  uint64_t id() const { return id_; }

 private:
  Tracer::Lane* lane_;
  uint64_t parent_;
  const char* name_;
  uint64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench
