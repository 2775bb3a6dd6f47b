#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace perfbench {

double wall_us() { return chimera::obs::now_us(); }

double cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {
/// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
/// softirq steal (guest time is already inside user). Empty when unreadable.
std::vector<unsigned long long> read_cpu_line() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return {};
  std::istringstream ss(line.substr(4));
  std::vector<unsigned long long> v;
  unsigned long long x = 0;
  while (v.size() < 8 && ss >> x) v.push_back(x);
  if (v.size() < 8) v.clear();
  return v;
}
}  // namespace

void StealMeter::start() { begin_ = read_cpu_line(); }

double StealMeter::share() const {
  const std::vector<unsigned long long> end = read_cpu_line();
  if (begin_.empty() || end.empty()) return 0.0;
  unsigned long long total = 0;
  for (std::size_t i = 0; i < end.size(); ++i) total += end[i] - begin_[i];
  return total == 0 ? 0.0
                    : static_cast<double>(end[7] - begin_[7]) /
                          static_cast<double>(total);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

}  // namespace perfbench
