/**
 * @file
 * Entry point of the serving benchmark binary and the helpers of
 * bench.hh. Subcommands:
 *
 *   probe                      host fingerprint: cores, SIMD backend,
 *                              streaming-read bandwidth at 1 and nproc
 *                              threads
 *   serve --workload W --seed S
 *                              set-up(s) and the serving process
 *   load  --workload W --seed S --seconds T --port P --trace 0|1
 *                              the load generator and traced run
 *
 * run.py drives all three; see it for the protocol between them.
 */

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "poly/simd/simd.hh"

namespace servebench {

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

ive::PirParams
workloadParams(const Workload &w)
{
    ive::PirParams p = ive::PirParams::functionalDefault();
    p.d0 = w.d0;
    p.d = w.d;
    p.validate();
    return p;
}

std::vector<u64>
recordContent(const ive::PirParams &p, u64 seed, u64 entry, int plane)
{
    std::vector<u64> coeffs(p.he.n);
    const u64 base = mix64(seed ^ mix64(entry * 8191 + static_cast<u64>(
                                                           plane)));
    for (u64 j = 0; j < p.he.n; ++j)
        coeffs[j] = mix64(base + j) & (p.he.plainModulus - 1);
    return coeffs;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

size_t
samplesBeyond(const std::vector<double> &v, double q)
{
    double cut = quantile(v, q);
    return static_cast<size_t>(
        std::count_if(v.begin(), v.end(),
                      [cut](double x) { return x > cut; }));
}

namespace {

double
statusKib(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0)
            return std::atof(line.c_str() + len);
    }
    return 0.0;
}

} // namespace

double
rssMib()
{
    return statusKib("VmRSS:") / 1024.0;
}

double
peakRssMib()
{
    return statusKib("VmHWM:") / 1024.0;
}

void
Json::sep(const std::string &key)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += "\"" + key + "\": ";
}

Json &
Json::num(const std::string &key, double v)
{
    sep(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    body_ += buf;
    return *this;
}

Json &
Json::str(const std::string &key, const std::string &v)
{
    sep(key);
    body_ += "\"" + v + "\"";
    return *this;
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    sep(key);
    body_ += json;
    return *this;
}

void
SpanLog::add(const std::string &name, u64 id, u64 parent, u64 request,
             u64 start_ns, u64 end_ns)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) /
                          1e6);
    return out;
}

void
SpanLog::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<u64, std::vector<const Span *>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Self time: duration minus the union of child intervals,
        // clipped to this span.
        std::vector<std::pair<u64, u64>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->startNs, s.startNs),
                            std::min(c->endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        u64 covered = 0, reach = s.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        const u64 dur = s.endNs - s.startNs;
        out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request
            << ", \"start_us\": " << s.startNs / 1000
            << ", \"dur_us\": " << dur / 1000
            << ", \"self_us\": " << (dur - std::min(dur, covered)) / 1000
            << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

std::string
argValue(int argc, char **argv, const std::string &key,
         const std::string &def)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (key == argv[i])
            return argv[i + 1];
    return def;
}

namespace {

/** Best-of-passes streaming read of a buffer larger than any cache,
 *  split evenly over `threads` readers. */
double
readBandwidthGbps(const std::vector<u64> &buf, int threads)
{
    double best = 0.0;
    std::vector<u64> sums(static_cast<size_t>(threads));
    for (int pass = 0; pass < 5; ++pass) {
        std::vector<std::thread> ts;
        const size_t chunk = buf.size() / static_cast<size_t>(threads);
        double t0 = nowSec();
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                const u64 *p = buf.data() + chunk * static_cast<size_t>(t);
                u64 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
                for (size_t i = 0; i + 4 <= chunk; i += 4) {
                    a0 += p[i];
                    a1 += p[i + 1];
                    a2 += p[i + 2];
                    a3 += p[i + 3];
                }
                sums[static_cast<size_t>(t)] = a0 ^ a1 ^ a2 ^ a3;
            });
        }
        for (auto &th : ts)
            th.join();
        double secs = nowSec() - t0;
        best = std::max(best, static_cast<double>(chunk * 8 *
                                                  static_cast<size_t>(
                                                      threads)) /
                                  secs / 1e9);
    }
    // Publish the sums so the reads cannot be optimised away.
    static volatile u64 sink = 0;
    for (u64 s : sums)
        sink = sink ^ s;
    return best;
}

} // namespace

int
runProbe(int, char **)
{
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<u64> buf((size_t{256} << 20) / 8);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = i;
    Json j;
    j.num("cores", cores)
        .str("simd", ive::simd::active().name)
        .num("read_gbps_1t", readBandwidthGbps(buf, 1))
        .num("read_gbps_nproc", readBandwidthGbps(buf, cores));
    std::printf("%s\n", j.done().c_str());
    return 0;
}

} // namespace servebench

int
main(int argc, char **argv)
{
    using namespace servebench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s probe|serve|load [options]\n",
                     argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "probe")
            return runProbe(argc, argv);
        if (cmd == "serve")
            return runServe(argc, argv);
        if (cmd == "load")
            return runLoad(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
}
