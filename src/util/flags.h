// Declared command-line flags for the flatnet tools.
//
// A tool lists every flag once in a FlagSet — name, value placeholder,
// target, and check — and Parse walks argv left to right against that
// table. The usage line is built from the same table, so the synopsis and
// the parser cannot drift apart. The first bad argument (unknown flag,
// missing or malformed value, value out of range or too wide for its
// target, stray bare argument) prints the usage line plus the reason to
// stderr and makes Parse return kUsageExit (2).
//
// Values are taken verbatim from the next argv entry, even when it starts
// with '-'. A flag given twice keeps its last value; a Repeatable flag
// sees every occurrence.
#ifndef FLATNET_UTIL_FLAGS_H_
#define FLATNET_UTIL_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace flatnet {

class FlagSet {
 public:
  // The exit code of every argv error.
  static constexpr int kUsageExit = 2;

  // `program` heads the usage line: "usage: <program> ...".
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  // An unsigned integer in [min, max], stored as the target's type T (or
  // std::optional<T>, for a flag whose absence the tool must tell from any
  // value). A value wider than T is rejected, never truncated: `max` is
  // capped at T's own maximum.
  template <typename Target>
  FlagSet& Unsigned(std::string name, std::string placeholder, Target* target,
                    std::uint64_t min = 0,
                    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    using T = typename UnsignedOf<Target>::type;
    static_assert(std::is_unsigned_v<T>, "Unsigned flags store into unsigned targets");
    max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
    return Add(std::move(name), std::move(placeholder), [=](const std::string& value) {
      *target = static_cast<T>(ParseUnsigned(value, min, max));
    });
  }

  // A number (ParseDouble grammar) rejected when below `min` or above `max`.
  FlagSet& Double(std::string name, std::string placeholder, double* target, double min,
                  double max = std::numeric_limits<double>::infinity());

  FlagSet& String(std::string name, std::string placeholder, std::string* target);

  // One of a fixed list of spellings; the placeholder lists them "a|b|c".
  // The string form stores the spelling, the mapped form (a braced list or
  // a table of {spelling, value} pairs) its value.
  FlagSet& Choice(std::string name, std::initializer_list<const char*> choices,
                  std::string* target);
  template <typename T, std::size_t N>
  FlagSet& Choice(std::string name, const std::pair<const char*, T> (&choices)[N], T* target) {
    std::vector<std::string> names;
    std::vector<T> values;
    for (const auto& [spelling, value] : choices) {
      names.emplace_back(spelling);
      values.push_back(value);
    }
    return AddChoice(std::move(name), std::move(names),
                     [=](std::size_t index) { *target = values[index]; });
  }

  // A flag without a value: sets *target = value.
  FlagSet& Switch(std::string name, bool* target, bool value = true);

  // Hands every occurrence's value to `apply`, for flags that build a list
  // or have their own grammar. `apply` rejects a value by returning false
  // or by throwing Error, whose message becomes the reason.
  FlagSet& Repeatable(std::string name, std::string placeholder,
                      std::function<bool(const std::string&)> apply);

  // Bare arguments (those not starting with '-') land here; the last one
  // wins. Without a positional, a bare argument is an error.
  FlagSet& Positional(std::string placeholder, std::string* target);

  // Returns 0 when all of argv parsed, else kUsageExit after printing the
  // usage line and the reason.
  int Parse(int argc, const char* const* argv);

  // Prints the usage line and returns kUsageExit, for the checks a tool
  // makes across flags after Parse.
  int UsageError() const;

  // "usage: <program> <positional> [--flag PLACEHOLDER] ...", wrapped.
  std::string Usage() const;

  // Why the last Parse failed; empty after a successful one.
  const std::string& error() const { return error_; }

 private:
  template <typename T>
  struct UnsignedOf {
    using type = T;
  };
  template <typename T>
  struct UnsignedOf<std::optional<T>> {
    using type = T;
  };

  struct Flag {
    std::string name;
    std::string placeholder;  // empty for a switch
    std::function<void(const std::string&)> apply;  // throws Error to reject
  };

  FlagSet& Add(std::string name, std::string placeholder,
               std::function<void(const std::string&)> apply);
  FlagSet& AddChoice(std::string name, std::vector<std::string> names,
                     std::function<void(std::size_t)> store);
  static std::uint64_t ParseUnsigned(const std::string& value, std::uint64_t min,
                                     std::uint64_t max);

  std::string program_;
  std::vector<Flag> flags_;
  std::string positional_placeholder_;
  std::string* positional_ = nullptr;
  std::string error_;
};

}  // namespace flatnet

#endif  // FLATNET_UTIL_FLAGS_H_
