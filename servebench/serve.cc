/**
 * @file
 * The serving process: database, default-configured PirTcpServer, and
 * the server-side readings of the measured window.
 *
 * Set-up is timed from building the ring context and database (the
 * Database::fill NTT preprocessing) until a Hello round trip over the
 * socket proves the server answers. A workload asks for several
 * set-ups: all but the last run in forked children (each a cold
 * process, so no set-up reuses another's freed memory), and the last
 * one stays up to serve. Client key generation is not part of it.
 *
 * Protocol on stdout/stdin (run.py is the other end):
 *   -> ready {"port", "setup_s": [...], "fill_s", "resident_mib"}
 *   <- mark        snapshot the counters: the measured window starts
 *   <- stop        snapshot again, report the window's deltas:
 *   -> stats {...}
 * and the process drains the server and exits 0.
 *
 * Server internals are read only through what the program exports:
 * the obs::Registry instruments, NetServerStats, DispatcherStats and
 * RegistryStats. The generator's key blobs and queries live in another
 * process, so peak_rss_mib is the serving side alone.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <iostream>
#include <memory>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"

namespace servebench {

namespace {

using namespace ive;

struct Deployment
{
    std::unique_ptr<HeContext> ctx;
    std::unique_ptr<Database> db;
    std::unique_ptr<net::PirTcpServer> server; ///< Destroyed first.
    double setupSec = 0.0;
    double fillSec = 0.0;
    double residentMib = 0.0;
};

Deployment
setUp(const PirParams &params, u64 seed)
{
    Deployment d;
    const double t0 = nowSec();
    const double rss0 = rssMib();
    d.ctx = std::make_unique<HeContext>(params.he);
    d.db = std::make_unique<Database>(*d.ctx, params);
    const double tf = nowSec();
    d.db->fill([&](u64 entry, int plane) {
        return recordContent(params, seed, entry, plane);
    });
    d.fillSec = nowSec() - tf;
    d.residentMib = rssMib() - rss0;
    d.server = std::make_unique<net::PirTcpServer>(*d.ctx, params,
                                                   d.db.get());
    {
        net::PirTcpClient probe("127.0.0.1", d.server->port());
        probe.hello(0);
    }
    d.setupSec = nowSec() - t0;
    return d;
}

/** Set-up in a forked child; returns its set-up seconds. */
double
setUpInChild(const PirParams &params, u64 seed)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw Error("pipe failed");
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        throw Error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        double secs = -1.0;
        try {
            Deployment d = setUp(params, seed);
            secs = d.setupSec;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "set-up child: %s\n", e.what());
        }
        ssize_t n = ::write(fds[1], &secs, sizeof secs);
        ::_exit(n == static_cast<ssize_t>(sizeof secs) && secs > 0 ? 0
                                                                   : 1);
    }
    ::close(fds[1]);
    double secs = -1.0;
    ssize_t n = ::read(fds[0], &secs, sizeof secs);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof secs) || secs <= 0 ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw Error("set-up child failed");
    return secs;
}

struct Snapshot
{
    double t = 0.0;
    obs::HistogramSnapshot wait;
    obs::HistogramSnapshot batch;
    u64 busyNs = 0;
    net::NetServerStats net;
    DispatcherStats disp;
    net::RegistryStats reg;
};

Snapshot
snapshot(net::PirTcpServer &server)
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    Snapshot s;
    s.t = nowSec();
    s.wait = r.histogram(n::kDispatchWindowWaitNs).snapshot();
    s.batch = r.histogram(n::kDispatchBatchSize).snapshot();
    s.busyNs = r.counter(n::kPoolBusyNs).value();
    s.net = server.stats();
    s.disp = server.dispatcherStats();
    s.reg = server.registry().stats();
    return s;
}

obs::HistogramSnapshot
delta(const obs::HistogramSnapshot &a, const obs::HistogramSnapshot &b)
{
    obs::HistogramSnapshot d;
    d.count = b.count - a.count;
    d.sum = b.sum - a.sum;
    d.buckets.resize(b.buckets.size());
    for (size_t i = 0; i < b.buckets.size(); ++i)
        d.buckets[i] =
            b.buckets[i] - (i < a.buckets.size() ? a.buckets[i] : 0);
    return d;
}

std::string
windowStats(const Snapshot &a, const Snapshot &b, double tail_q)
{
    const double window = b.t - a.t;
    obs::HistogramSnapshot wait = delta(a.wait, b.wait);
    obs::HistogramSnapshot batch = delta(a.batch, b.batch);
    const int threads = ThreadPool::global().size();
    Json j;
    j.num("window_s", window)
        .num("peak_rss_mib", peakRssMib())
        .num("queue_wait_p50_ms",
             static_cast<double>(wait.percentile(0.5)) / 1e6)
        .num("queue_wait_tail_ms",
             static_cast<double>(wait.percentile(tail_q)) / 1e6)
        .num("batch_size_mean", batch.mean())
        .num("batches", static_cast<double>(batch.count))
        .num("pool_threads", threads)
        .num("pool_busy_frac",
             static_cast<double>(b.busyNs - a.busyNs) / 1e9 /
                 (window * threads))
        .num("bytes_in", static_cast<double>(b.net.bytesIn - a.net.bytesIn))
        .num("bytes_out",
             static_cast<double>(b.net.bytesOut - a.net.bytesOut))
        .num("frames_in",
             static_cast<double>(b.net.framesIn - a.net.framesIn))
        .num("error_frames",
             static_cast<double>(b.net.errorFrames - a.net.errorFrames))
        .num("submitted",
             static_cast<double>(b.disp.submitted - a.disp.submitted))
        .num("shed", static_cast<double>(
                         (b.disp.shed + b.disp.expired +
                          b.disp.rejectedShutdown) -
                         (a.disp.shed + a.disp.expired +
                          a.disp.rejectedShutdown)))
        .num("registered",
             static_cast<double>(b.reg.registered - a.reg.registered))
        .num("evicted", static_cast<double>(b.reg.evicted - a.reg.evicted));
    return j.done();
}

} // namespace

int
runServe(int argc, char **argv)
{
    const Workload *w = findWorkload(argValue(argc, argv, "--workload", ""));
    if (!w)
        throw ive::Error("serve: unknown --workload");
    const u64 seed = std::stoull(argValue(argc, argv, "--seed", "1"));
    const PirParams params = workloadParams(*w);

    // Children first: this process starts no thread before forking.
    std::vector<double> setups;
    for (int i = 0; i + 1 < w->setups; ++i)
        setups.push_back(setUpInChild(params, seed));
    Deployment d = setUp(params, seed);
    setups.push_back(d.setupSec);

    std::string list;
    for (double s : setups)
        list += (list.empty() ? "" : ", ") + std::to_string(s);
    Json ready;
    ready.num("port", d.server->port())
        .raw("setup_s", "[" + list + "]")
        .num("fill_s", d.fillSec)
        .num("resident_mib", d.residentMib);
    std::printf("ready %s\n", ready.done().c_str());
    std::fflush(stdout);

    Snapshot mark;
    bool marked = false;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line == "mark") {
            mark = snapshot(*d.server);
            marked = true;
        } else if (line == "stop") {
            Snapshot end = snapshot(*d.server);
            std::printf("stats %s\n",
                        windowStats(marked ? mark : end, end, w->tailQ)
                            .c_str());
            std::fflush(stdout);
            d.server->drain();
            return 0;
        }
    }
    std::fprintf(stderr, "serve: control input closed before stop\n");
    return 3;
}

} // namespace servebench
