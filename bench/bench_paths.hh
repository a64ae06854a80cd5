/**
 * @file
 * Where bench binaries write their machine-readable results.
 *
 * A full run's JSON lands next to ROADMAP.md wherever the binary was
 * launched from: walk up from the working directory to the first
 * ancestor holding ROADMAP.md, falling back to the working directory
 * itself. Those repo-root files are the tracked results. A --smoke
 * run writes to the working directory instead, so the test suite
 * (which runs smokes from the build tree) never rewrites a tracked
 * file; CI launches its smoke steps from the repository root, so
 * their artifacts still land there.
 */

#ifndef ZARF_BENCH_PATHS_HH
#define ZARF_BENCH_PATHS_HH

#include <filesystem>
#include <string>

namespace zarf::benchio
{

inline std::string
repoRootedPath(const std::string &filename)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::current_path(ec);
    if (ec)
        return filename;
    for (fs::path d = dir;; d = d.parent_path()) {
        if (fs::exists(d / "ROADMAP.md", ec))
            return (d / filename).string();
        if (!d.has_parent_path() || d == d.parent_path())
            break;
    }
    return filename;
}

/** Where a bench writes `filename`: the repo root for a full run,
 *  the working directory for a smoke run. */
inline std::string
outputPath(const std::string &filename, bool smoke)
{
    return smoke ? filename : repoRootedPath(filename);
}

} // namespace zarf::benchio

#endif // ZARF_BENCH_PATHS_HH
