#include "batch/manifest.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "workloads/workload.hh"

namespace glifs::batch
{

namespace
{

/** Split a line into whitespace-separated fields, dropping comments. */
std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

uint64_t
number(const std::string &tok, int line)
{
    auto v = parseInt(tok);
    if (!v || *v <= 0)
        GLIFS_FATAL("manifest line ", line, ": expected a positive "
                    "number, got '", tok, "'");
    return static_cast<uint64_t>(*v);
}

double
positiveReal(const std::string &tok, int line)
{
    char *end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || v <= 0)
        GLIFS_FATAL("manifest line ", line, ": expected a positive "
                    "duration, got '", tok, "'");
    return v;
}

std::string
resolvePath(const std::string &baseDir, const std::string &path)
{
    if (baseDir.empty() || path.empty() || path[0] == '/')
        return path;
    return baseDir + "/" + path;
}

std::string
readFileOr(const std::string &path, int line)
{
    std::ifstream in(path);
    if (!in)
        GLIFS_FATAL("manifest line ", line, ": cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/**
 * Apply one `<budget> <value>` directive; true if @p kw named a
 * budget dimension (shared by `default` lines and job-block lines).
 */
bool
applyBudget(JobBudgets &b, const std::string &kw,
            const std::string &val, int line)
{
    if (kw == "deadline")
        b.deadlineSeconds = positiveReal(val, line);
    else if (kw == "max-cycles")
        b.maxCycles = number(val, line);
    else if (kw == "max-states")
        b.maxStates = number(val, line);
    else if (kw == "max-rss")
        b.maxRssMb = number(val, line);
    else
        return false;
    return true;
}

} // namespace

std::string
JobBudgets::canonical() const
{
    std::ostringstream oss;
    oss << "deadline=" << deadlineSeconds << ";cycles=" << maxCycles
        << ";states=" << maxStates << ";rss_mb=" << maxRssMb;
    return oss.str();
}

std::string
RetryConfig::canonical() const
{
    std::ostringstream oss;
    oss << "mult=" << multiplier << ";attempts=" << maxAttempts;
    return oss.str();
}

Manifest
parseManifest(const std::string &text, const std::string &baseDir)
{
    Manifest m;
    JobBudgets defaults;
    JobSpec *cur = nullptr;    // job block being filled, if any
    int curLine = 0;           // where that block started

    // Each job must end up with exactly one firmware source; checked
    // when the block closes so the diagnostic cites the `job` line.
    auto closeJob = [&]() {
        if (!cur)
            return;
        if (cur->workload.empty() && cur->firmwarePath.empty())
            GLIFS_FATAL("manifest line ", curLine, ": job '",
                        cur->name, "' names neither a workload nor a "
                        "firmware file");
        cur = nullptr;
    };

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::vector<std::string> f = fields(line);
        if (f.empty())
            continue;
        std::string kw = toLower(f[0]);

        if (kw == "batch") {
            std::string name;
            for (size_t i = 1; i < f.size(); ++i)
                name += (i > 1 ? " " : "") + f[i];
            m.name = name;
        } else if (kw == "retry") {
            if (f.size() != 3)
                GLIFS_FATAL("manifest line ", lineno,
                            ": retry <multiplier|max-attempts> <val>");
            std::string which = toLower(f[1]);
            if (which == "multiplier") {
                m.retry.multiplier = positiveReal(f[2], lineno);
                if (m.retry.multiplier < 1.0)
                    GLIFS_FATAL("manifest line ", lineno,
                                ": retry multiplier must be >= 1");
            } else if (which == "max-attempts") {
                m.retry.maxAttempts =
                    static_cast<unsigned>(number(f[2], lineno));
            } else {
                GLIFS_FATAL("manifest line ", lineno,
                            ": unknown retry setting '", f[1], "'");
            }
        } else if (kw == "default") {
            if (f.size() != 3 ||
                !applyBudget(defaults, toLower(f[1]), f[2], lineno))
                GLIFS_FATAL("manifest line ", lineno,
                            ": default <deadline|max-cycles|"
                            "max-states|max-rss> <value>");
        } else if (kw == "job") {
            if (f.size() != 2)
                GLIFS_FATAL("manifest line ", lineno, ": job <name>");
            closeJob();
            for (const JobSpec &j : m.jobs) {
                if (j.name == f[1])
                    GLIFS_FATAL("manifest line ", lineno,
                                ": duplicate job name '", f[1], "'");
            }
            m.jobs.push_back(JobSpec{});
            cur = &m.jobs.back();
            cur->name = f[1];
            cur->budgets = defaults;
            curLine = lineno;
        } else if (cur == nullptr) {
            GLIFS_FATAL("manifest line ", lineno, ": directive '",
                        f[0], "' outside a job block");
        } else if (kw == "workload") {
            if (f.size() != 2)
                GLIFS_FATAL("manifest line ", lineno,
                            ": workload <name>");
            if (!cur->firmwarePath.empty())
                GLIFS_FATAL("manifest line ", lineno, ": job '",
                            cur->name, "' already has a firmware "
                            "file");
            const Workload *w = findWorkload(f[1]);
            if (!w)
                GLIFS_FATAL("manifest line ", lineno,
                            ": unknown workload '", f[1],
                            "' (see glifs_audit --list-workloads)");
            cur->workload = f[1];
            cur->firmwareText = w->source();
        } else if (kw == "firmware") {
            if (f.size() != 2)
                GLIFS_FATAL("manifest line ", lineno,
                            ": firmware <path.s>");
            if (!cur->workload.empty())
                GLIFS_FATAL("manifest line ", lineno, ": job '",
                            cur->name, "' already has a workload");
            cur->firmwarePath = resolvePath(baseDir, f[1]);
            cur->firmwareText = readFileOr(cur->firmwarePath, lineno);
        } else if (kw == "policy") {
            if (f.size() != 2)
                GLIFS_FATAL("manifest line ", lineno,
                            ": policy <path>");
            cur->policyPath = resolvePath(baseDir, f[1]);
            cur->policyText = readFileOr(cur->policyPath, lineno);
        } else if (f.size() == 2 &&
                   applyBudget(cur->budgets, kw, f[1], lineno)) {
            // budget override handled
        } else {
            GLIFS_FATAL("manifest line ", lineno,
                        ": unknown directive '", f[0], "'");
        }
    }
    closeJob();

    if (m.jobs.empty())
        GLIFS_FATAL("manifest is empty: no job blocks found");
    return m;
}

Manifest
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GLIFS_FATAL("cannot open manifest ", path);
    std::ostringstream oss;
    oss << in.rdbuf();

    std::string baseDir;
    size_t slash = path.rfind('/');
    if (slash != std::string::npos)
        baseDir = path.substr(0, slash);

    Manifest m = parseManifest(oss.str(), baseDir);
    m.path = path;
    return m;
}

} // namespace glifs::batch
