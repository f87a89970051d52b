#include "util/flags.h"

#include <cstdio>

#include "util/error.h"
#include "util/strings.h"

namespace flatnet {

namespace {

// The usage line wraps before this column, continuing under the first
// argument.
constexpr std::size_t kUsageWidth = 80;

}  // namespace

FlagSet& FlagSet::Add(std::string name, std::string placeholder,
                      std::function<void(const std::string&)> apply) {
  flags_.push_back({std::move(name), std::move(placeholder), std::move(apply)});
  return *this;
}

std::uint64_t FlagSet::ParseUnsigned(const std::string& value, std::uint64_t min,
                                     std::uint64_t max) {
  std::optional<std::uint64_t> parsed = ParseU64(value);
  if (!parsed) throw Error("'" + value + "' is not an unsigned integer");
  if (*parsed < min || *parsed > max) {
    throw Error(StrFormat("%s is out of range [%llu, %llu]", value.c_str(),
                          static_cast<unsigned long long>(min),
                          static_cast<unsigned long long>(max)));
  }
  return *parsed;
}

FlagSet& FlagSet::Double(std::string name, std::string placeholder, double* target,
                         double min, double max) {
  return Add(std::move(name), std::move(placeholder), [=](const std::string& value) {
    std::optional<double> parsed = ParseDouble(value);
    if (!parsed) throw Error("'" + value + "' is not a number");
    if (*parsed < min || *parsed > max) throw Error(value + " is out of range");
    *target = *parsed;
  });
}

FlagSet& FlagSet::String(std::string name, std::string placeholder, std::string* target) {
  return Add(std::move(name), std::move(placeholder),
             [target](const std::string& value) { *target = value; });
}

FlagSet& FlagSet::AddChoice(std::string name, std::vector<std::string> names,
                            std::function<void(std::size_t)> store) {
  std::string placeholder = Join(names, "|");
  auto apply = [names, store, placeholder](const std::string& value) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == value) return store(i);
    }
    throw Error("'" + value + "' is not one of " + placeholder);
  };
  return Add(std::move(name), placeholder, std::move(apply));
}

FlagSet& FlagSet::Choice(std::string name, std::initializer_list<const char*> choices,
                         std::string* target) {
  std::vector<std::string> names(choices.begin(), choices.end());
  return AddChoice(std::move(name), names,
                   [names, target](std::size_t index) { *target = names[index]; });
}

FlagSet& FlagSet::Switch(std::string name, bool* target, bool value) {
  return Add(std::move(name), "", [=](const std::string&) { *target = value; });
}

FlagSet& FlagSet::Repeatable(std::string name, std::string placeholder,
                             std::function<bool(const std::string&)> apply) {
  auto checked = [apply = std::move(apply)](const std::string& value) {
    if (!apply(value)) throw Error("invalid value '" + value + "'");
  };
  return Add(std::move(name), std::move(placeholder), std::move(checked));
}

FlagSet& FlagSet::Positional(std::string placeholder, std::string* target) {
  positional_placeholder_ = std::move(placeholder);
  positional_ = target;
  return *this;
}

int FlagSet::Parse(int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      if (!arg.empty() && arg[0] == '-') {
        error_ = "unknown flag " + arg;
      } else if (positional_ == nullptr) {
        error_ = "unexpected argument '" + arg + "'";
      } else {
        *positional_ = arg;
        continue;
      }
    } else if (flag->placeholder.empty()) {
      flag->apply("");
      continue;
    } else if (i + 1 >= argc) {
      error_ = arg + ": missing value";
    } else {
      try {
        flag->apply(argv[++i]);
        continue;
      } catch (const Error& e) {
        error_ = arg + ": " + e.what();
      }
    }
    UsageError();
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), error_.c_str());
    return kUsageExit;
  }
  return 0;
}

int FlagSet::UsageError() const {
  std::fputs(Usage().c_str(), stderr);
  return kUsageExit;
}

std::string FlagSet::Usage() const {
  std::vector<std::string> items;
  if (positional_ != nullptr) items.push_back(positional_placeholder_);
  for (const Flag& flag : flags_) {
    std::string item = "[" + flag.name;
    if (!flag.placeholder.empty()) item += " " + flag.placeholder;
    items.push_back(item + "]");
  }
  std::string out = "usage: " + program_;
  std::string indent(out.size(), ' ');
  std::size_t line_start = 0;
  for (const std::string& item : items) {
    if (out.size() - line_start + 1 + item.size() > kUsageWidth &&
        out.size() > line_start + indent.size()) {
      out += "\n";
      line_start = out.size();
      out += indent;
    }
    out += " " + item;
  }
  return out + "\n";
}

}  // namespace flatnet
