// The observability flags the tools share: --log-level (every tool) and
// --metrics-out (every tool but flatnet_loadgen).
#ifndef FLATNET_TOOLS_OBS_FLAGS_H_
#define FLATNET_TOOLS_OBS_FLAGS_H_

#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace flatnet::tools {

// --log-level <level>: applied as it parses (obs::ParseLogLevel grammar).
inline void AddLogLevelFlag(FlagSet& flags) {
  flags.Repeatable("--log-level", "trace|debug|info|warn|error|off", [](const std::string& v) {
    auto level = obs::ParseLogLevel(v);
    if (level) obs::SetLogLevel(*level);
    return level.has_value();
  });
}

// Registers --log-level and --metrics-out <file>. Finish(code) writes the
// metrics snapshot when --metrics-out was given and passes `code` through,
// so an exit path that publishes metrics ends `return obs.Finish(code)`.
class ObsFlags {
 public:
  explicit ObsFlags(FlagSet& flags) {
    AddLogLevelFlag(flags);
    flags.String("--metrics-out", "<file>", &metrics_out_);
  }

  const std::string& metrics_out() const { return metrics_out_; }

  int Finish(int code) const {
    if (!metrics_out_.empty()) obs::WriteMetricsFile(metrics_out_);
    return code;
  }

 private:
  std::string metrics_out_;
};

}  // namespace flatnet::tools

#endif  // FLATNET_TOOLS_OBS_FLAGS_H_
