/**
 * @file
 * Shared pieces of the serving benchmark: the workload table, the
 * deterministic record content (the response oracle), clocks, sample
 * statistics, a small JSON writer, memory readings and the span log
 * of the traced run.
 */

#ifndef IVE_SERVEBENCH_BENCH_HH
#define IVE_SERVEBENCH_BENCH_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "pir/session.hh"

namespace servebench {

using ive::u64;
using ive::u8;

/**
 * One traffic mix. Every workload runs the decrypting functional ring
 * (PirParams::functionalDefault(), n = 4096) with one-plaintext
 * records (16 KiB each) and the shipped default NetServerConfig.
 */
struct Workload
{
    const char *name;
    u64 d0;
    int d;
    /** Distinct client ids, each with its own keys. */
    int clients;
    /** Open loop: seeded arrivals at offeredQps over one pipelined
     *  connection. Closed loop: one caller thread and connection per
     *  client, each waiting for its reply. */
    bool openLoop;
    double offeredQps;
    /** Zipf exponent of the client choice (open loop). */
    double zipfS;
    /** Fixed tail percentile, with at least ten samples beyond it at
     *  the benchmark's run length. */
    double tailQ;
    /** PirTcpClient::registerKeys round trips made on an idle server
     *  before the measured window (register_p50_ms). */
    int registerSamples;
    /** Set-ups per run; setup_s is their median. */
    int setups;
    /** Query blobs kept per client (indices drawn from the seed). */
    int queriesPerClient;
    /** Query blobs replayed in-process in the traced run. */
    int replayQueries;
};

// Why these three (see BENCHMARK.json): solo_bigdb isolates the
// pipeline with RowSel at its largest share; shared_bigdb is the
// multi-client throughput case where cross-query work sharing shows;
// swarm_smalldb makes per-client key state, the registry and the
// socket dominate while RowSel is negligible.
inline constexpr Workload kWorkloads[] = {
    {"solo_bigdb", 128, 7, 1, false, 0.0, 0.0, 0.75, 16, 3, 8, 4},
    {"shared_bigdb", 128, 7, 4, false, 0.0, 0.0, 0.75, 16, 3, 4, 4},
    // 6 arrivals/s is about a sixth of the ~33/s this workload
    // sustains on a 4-core host. At a third of capacity, dispatcher
    // queueing still turned a 25% host slowdown into a 3x longer p95.
    // p90 lands among the retrievals that re-register (about a fifth),
    // 12 samples beyond it; p95, 6 beyond, spread more than twice as much.
    {"swarm_smalldb", 16, 2, 20, true, 6.0, 1.0, 0.90, 40, 9, 4, 24},
};

const Workload *findWorkload(const std::string &name);

ive::PirParams workloadParams(const Workload &w);

/** splitmix64 finalizer. */
inline u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Record content, a pure function of (seed, entry, plane): the server
 * fills its database from it and the generator checks every decoded
 * response against it, so no second copy of the database is kept.
 */
std::vector<u64> recordContent(const ive::PirParams &p, u64 seed,
                               u64 entry, int plane);

using Clock = std::chrono::steady_clock;

inline double
nowSec()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Linearly interpolated quantile (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Samples strictly above the q-quantile. */
size_t samplesBeyond(const std::vector<double> &v, double q);

/** Resident set and its peak (VmRSS / VmHWM), in MiB. */
double rssMib();
double peakRssMib();

/** Minimal ordered JSON object writer (numbers, strings, nesting). */
class Json
{
  public:
    Json &num(const std::string &key, double v);
    Json &str(const std::string &key, const std::string &v);
    Json &raw(const std::string &key, const std::string &json);
    std::string done() const { return "{" + body_ + "}"; }

  private:
    void sep(const std::string &key);
    std::string body_;
};

/**
 * In-memory span log of the traced run. A span names the public call
 * it wraps, its start and end, the span that caused it and the request
 * it belongs to. Nothing is written until writeJson() at the end, and
 * a disabled log records nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        u64 id = 0;
        u64 parent = 0; ///< 0 = root.
        u64 request = 0;
        u64 startNs = 0;
        u64 endNs = 0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span id (also usable as a request id). */
    u64 newId() { return nextId_.fetch_add(1); }

    void add(const std::string &name, u64 id, u64 parent, u64 request,
             u64 start_ns, u64 end_ns);

    /** Durations in ms of every span with this name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Writes every span with its self time (its duration minus the
     *  part of it covered by its children). */
    void writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::atomic<u64> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Times one call as a span; a null or disabled log records nothing
 *  (the untraced half of the traced run passes null). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, u64 parent, u64 request)
        : log_(log && log->enabled() ? log : nullptr), name_(name),
          parent_(parent), request_(request),
          id_(log_ ? log_->newId() : 0), start_(log_ ? nowNs() : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->add(name_, id_, parent_, request_, start_, nowNs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    u64 id() const { return id_; }

  private:
    SpanLog *log_;
    const char *name_;
    u64 parent_;
    u64 request_;
    u64 id_;
    u64 start_;
};

/** One client id of a workload with its keys and query pool. */
struct Client
{
    u64 id = 0;
    std::unique_ptr<ive::ClientSession> session;
    std::vector<u8> paramsBlob;
    std::vector<u8> keyBlob;
    std::vector<u64> indices;             ///< Record index per slot.
    std::vector<std::vector<u8>> queries; ///< Query blob per slot.
};

/** A query blob of clients[0] sent over the socket, with the response
 *  the server returned for it. */
struct ReplayItem
{
    const std::vector<u8> *query = nullptr;
    std::vector<u8> socketResponse;
};

/**
 * The in-process half of the traced run (layers.cc): replays blobs
 * through ServerSession::answer and the PirServer stages, registers
 * every client's keys into a SessionRegistry, and times the bfv and
 * kernel entry points at the workload's ring. Adds its readings to
 * `out` and returns false when a replayed response differs from the
 * socket's bytes.
 */
bool measureLayers(u64 seed,
                   const std::vector<Client> &clients,
                   const std::vector<ReplayItem> &replay, SpanLog &log,
                   Json &out);

// Subcommands (main.cc dispatches).
int runProbe(int argc, char **argv);
int runServe(int argc, char **argv);
int runLoad(int argc, char **argv);

/** "--key value" lookup; def when absent. */
std::string argValue(int argc, char **argv, const std::string &key,
                     const std::string &def);

} // namespace servebench

#endif // IVE_SERVEBENCH_BENCH_HH
