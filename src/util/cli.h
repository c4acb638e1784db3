/**
 * @file
 * Unified command-line parsing for every driver binary (examples and
 * tools). Replaces the per-binary copies of `--threads` / `--check` /
 * `--timeline*` / `--stats-json` / `--perf` handling that used to live
 * in each main():
 *
 *  - flags are *registered* (name, value placeholder, default, help
 *    text), so `--help` output is generated and an unknown or malformed
 *    flag is a hard error instead of a silent no-op;
 *  - addSimFlags()/applySimFlags() (core/vulkansim.h — they need
 *    GpuConfig, which lives above util) install the shared simulator
 *    flag set once and map it onto a GpuConfig, keeping all drivers in
 *    sync.
 */

#ifndef VKSIM_UTIL_CLI_H
#define VKSIM_UTIL_CLI_H

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace vksim {

/** Declarative command-line parser with generated --help. */
class Cli
{
  public:
    /**
     * `usage` is the one-line synopsis printed at the top of --help
     * (e.g. "quickstart [flags]"); `summary` a short description.
     */
    Cli(std::string usage, std::string summary);

    /** Register a boolean flag (`--name`, also accepts `--name=0/1`). */
    Cli &flag(const std::string &name, const std::string &help);

    /** Register a value flag (`--name=<value>`) with a default. */
    Cli &option(const std::string &name, const std::string &value_name,
                const std::string &fallback, const std::string &help);

    /**
     * Parse argv. Returns false on `--help` (help printed to stdout,
     * helpRequested() true) or on an error (message printed to stderr):
     * an unregistered flag, a positional argument, or a value passed to
     * a plain boolean flag. Typical driver prologue:
     *
     *   if (!cli.parse(argc, argv))
     *       return cli.helpRequested() ? 0 : 1;
     */
    bool parse(int argc, char **argv);

    bool helpRequested() const { return helpRequested_; }

    /** Was the flag given explicitly on the command line? */
    bool has(const std::string &name) const;

    /** Value of a registered flag (its default when not given). */
    std::string get(const std::string &name) const;
    long getInt(const std::string &name) const;
    double getFloat(const std::string &name) const;
    bool getBool(const std::string &name) const;

    void printHelp(std::FILE *out = stdout) const;

    /**
     * Engine/service thread count from `--threads=N` / `--serial`, in
     * GpuConfig::threads convention: 0 = auto, 1 = serial. Requires
     * addSimFlags() (or equivalent registrations).
     */
    unsigned threadCount() const;

  private:
    struct Spec
    {
        std::string name;
        std::string valueName; ///< empty for boolean flags
        std::string fallback;
        std::string help;
        bool boolean = false;
    };

    const Spec *find(const std::string &name) const;

    std::string usage_;
    std::string summary_;
    std::vector<Spec> specs_; ///< registration order (help layout)
    std::map<std::string, std::string> values_;
    bool helpRequested_ = false;
};

} // namespace vksim

#endif // VKSIM_UTIL_CLI_H
