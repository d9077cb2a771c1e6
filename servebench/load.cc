/**
 * @file
 * The load generator: one process driving the serving process's TCP
 * front-end, then checking every response.
 *
 * Closed loop (solo_bigdb, shared_bigdb): one caller thread and
 * connection per client; each PirTcpClient::query waits for its reply
 * and latency runs from the send.
 *
 * Open loop (swarm_smalldb): the arrival times are the order
 * statistics of N uniform draws over the run (a Poisson process with
 * its count fixed at offeredQps x seconds). The clients are more ids
 * than the registry's default budget holds, each getting exactly its
 * Zipf share of the arrivals, spread evenly. Arrivals go out on one
 * connection, pipelined up to the server's per-connection in-flight
 * cap, from a sender thread while a receiver thread takes the replies
 * in order: two threads plus one connection, within nproc. Latency
 * runs from the arrival's due time, so a stall counts against every
 * request it delays, and the generator's own lateness is reported as
 * gen.lag_ms.
 * A query answered with UnknownClient or StaleGeneration re-registers
 * the client's keys in the same stream and is sent again; its latency
 * includes all of that.
 *
 * Every error frame, refusal, timeout or response that fails the
 * oracle counts as a failed operation. Responses are decoded with
 * ClientSession::decodeResponse after the measured window and compared
 * with recordContent(); a mismatch fails the run.
 *
 * Protocol with run.py: "phase measure" when the window opens, "phase
 * done" when it closes, then wait for "go" on stdin (the serving
 * process has exited by then), then "result {...}".
 */

#include <condition_variable>
#include <deque>
#include <iostream>
#include <thread>

#include "bench.hh"
#include "net/client.hh"
#include "net/registry.hh"
#include "net/server.hh"

namespace servebench {

namespace {

using namespace ive;

constexpr int kMaxAttempts = 6;

std::vector<Client>
makeClients(const Workload &w, const PirParams &params, u64 seed)
{
    std::vector<Client> clients(static_cast<size_t>(w.clients));
    const int threads = std::max(
        1, std::min<int>(w.clients,
                         static_cast<int>(
                             std::thread::hardware_concurrency())));
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = t; i < w.clients; i += threads) {
                Client &c = clients[static_cast<size_t>(i)];
                c.id = 1000 + static_cast<u64>(i);
                c.session = std::make_unique<ClientSession>(
                    params, mix64(seed ^ (0xc0ffee + c.id)));
                c.paramsBlob = c.session->paramsBlob();
                c.keyBlob = c.session->keyBlob();
                Rng rng(mix64(seed * 31 + c.id));
                for (int q = 0; q < w.queriesPerClient; ++q) {
                    u64 index = rng.uniform(params.numEntries());
                    c.indices.push_back(index);
                    c.queries.push_back(c.session->queryBlob(index));
                }
            }
        });
    }
    for (auto &th : ts)
        th.join();
    return clients;
}

/** One retrieval: a record fetched by one client id. */
struct Retrieval
{
    int client = 0;
    int slot = 0;
    double due = 0.0;   ///< Open loop: scheduled send time.
    double start = 0.0; ///< When timing starts (due or first send).
    double done = 0.0;
    bool ok = false;
    bool failed = false;
    int attempts = 0;
    double lag = 0.0;
    u64 spanId = 0; ///< Root span; 0 = untraced.
    std::vector<u8> response;
};

/** What the measured window produced. */
struct Run
{
    std::vector<Retrieval> retrievals;
    u64 ops = 0;
    u64 failedOps = 0;
    u64 queryWireBytes = 0; ///< Query frames sent + their replies.
    u64 reregistrations = 0;
    std::vector<double> registerMs; ///< Idle registerKeys round trips.
    std::vector<double> thinkMs;    ///< Closed loop: reply to next send.
    double windowStart = 0.0;
    double windowEnd = 0.0;
    bool connectionLost = false;
};

/** QueryRef framing overhead: frame header + QueryRef fields. */
u64
queryRefOverhead()
{
    PirQueryRef ref;
    ref.clientId = 1;
    ref.generation = 1;
    ref.queryBlob.assign(8, 0);
    return serializeQueryRef(ref).size() - 8 + net::kFrameHeaderBytes;
}

/** Idle-server registrations; the last one per client stands. */
void
registerAll(const Workload &w, std::vector<Client> &clients,
            std::vector<u64> &gens, const std::vector<int> &order,
            u16 port, SpanLog *log, Run &run)
{
    net::PirTcpClient conn("127.0.0.1", port, 60.0);
    for (int i = 0; i < w.registerSamples; ++i) {
        const int c = order[static_cast<size_t>(i) % order.size()];
        Client &cl = clients[static_cast<size_t>(c)];
        ScopedSpan span(log, "PirTcpClient::registerKeys", 0, 0);
        const double t0 = nowSec();
        gens[static_cast<size_t>(c)] =
            conn.registerKeys(cl.id, cl.paramsBlob, cl.keyBlob);
        run.registerMs.push_back((nowSec() - t0) * 1e3);
        ++run.ops;
    }
}

void
phase(const char *name)
{
    std::printf("phase %s\n", name);
    std::fflush(stdout);
}

void
closedLoop(const Workload &w, std::vector<Client> &clients,
           std::vector<u64> &gens, u16 port, double seconds, u64 seed,
           SpanLog &log, Run &run)
{
    const u64 refOverhead = queryRefOverhead();
    std::mutex mu;
    std::vector<std::thread> ts;
    const double start = nowSec();
    const double deadline = start + seconds;
    run.windowStart = start;
    for (int c = 0; c < w.clients; ++c) {
        ts.emplace_back([&, c] {
            Client &cl = clients[static_cast<size_t>(c)];
            u64 gen = gens[static_cast<size_t>(c)];
            Rng rng(mix64(seed ^ (0xc105ed + cl.id)));
            std::vector<Retrieval> mine;
            std::vector<double> think;
            u64 ops = 0, failedOps = 0, wire = 0, rereg = 0;
            bool lost = false;
            try {
                net::PirTcpClient conn("127.0.0.1", port, 60.0);
                double lastDone = nowSec();
                while (!lost && nowSec() < deadline) {
                    Retrieval r;
                    r.client = c;
                    r.slot = static_cast<int>(
                        rng.uniform(cl.queries.size()));
                    // The traced run traces every other retrieval; the
                    // untraced half is the tracing-overhead baseline.
                    SpanLog *lg = log.enabled() && mine.size() % 2 == 0
                                      ? &log
                                      : nullptr;
                    const std::vector<u8> &blob =
                        cl.queries[static_cast<size_t>(r.slot)];
                    r.start = nowSec();
                    if (!mine.empty())
                        think.push_back((r.start - lastDone) * 1e3);
                    const u64 root = lg ? lg->newId() : 0;
                    r.spanId = root;
                    while (!r.ok && !r.failed) {
                        ++r.attempts;
                        ++ops;
                        try {
                            ScopedSpan s(lg, "PirTcpClient::query", root,
                                         root);
                            r.response = conn.query(cl.id, gen, blob);
                            wire += refOverhead + blob.size() +
                                    r.response.size() +
                                    net::kFrameHeaderBytes;
                            r.ok = true;
                            break;
                        } catch (const net::UnknownClientError &) {
                            ++failedOps;
                        } catch (const net::StaleGenerationError &) {
                            ++failedOps;
                        }
                        if (r.attempts >= kMaxAttempts) {
                            r.failed = true;
                            break;
                        }
                        ScopedSpan s(lg, "PirTcpClient::registerKeys",
                                     root, root);
                        ++ops;
                        ++rereg;
                        gen = conn.registerKeys(cl.id, cl.paramsBlob,
                                                cl.keyBlob);
                    }
                    r.done = nowSec();
                    lastDone = r.done;
                    if (lg)
                        lg->add("retrieval", root, 0, root,
                                static_cast<u64>(r.start * 1e9),
                                static_cast<u64>(r.done * 1e9));
                    mine.push_back(std::move(r));
                }
            } catch (const std::exception &e) {
                // Any other failure (refusal, timeout, lost connection)
                // leaves the stream's request/reply pairing unknown:
                // this caller stops and its retrieval counts as failed.
                std::fprintf(stderr, "client %llu: %s\n",
                             static_cast<unsigned long long>(cl.id),
                             e.what());
                ++failedOps;
                Retrieval r;
                r.client = c;
                r.failed = true;
                r.done = nowSec();
                mine.push_back(std::move(r));
                lost = true;
            }
            std::lock_guard<std::mutex> lk(mu);
            for (Retrieval &r : mine)
                run.retrievals.push_back(std::move(r));
            run.thinkMs.insert(run.thinkMs.end(), think.begin(),
                               think.end());
            run.ops += ops;
            run.failedOps += failedOps;
            run.queryWireBytes += wire;
            run.reregistrations += rereg;
            run.connectionLost = run.connectionLost || lost;
        });
    }
    for (auto &t : ts)
        t.join();
    run.windowEnd = start;
    for (const Retrieval &r : run.retrievals)
        run.windowEnd = std::max(run.windowEnd, r.done);
}

/**
 * Zipf(s)-skewed client choice. Each rank gets exactly its share of
 * the n arrivals, spread evenly by smooth weighted round robin, so the
 * registry's eviction pattern is the same for every seed; the seed
 * decides which client holds which rank (and, elsewhere, the arrival
 * times and record indices).
 */
struct ClientSchedule
{
    std::vector<int> rankToClient;
    std::vector<int> arrivals; ///< Client index per arrival.

    ClientSchedule(int clients, double s, size_t n, Rng &rng)
    {
        for (int i = 0; i < clients; ++i)
            rankToClient.push_back(i);
        for (size_t i = rankToClient.size(); i > 1; --i)
            std::swap(rankToClient[i - 1], rankToClient[rng.uniform(i)]);
        std::vector<double> weight, current(rankToClient.size(), 0.0);
        double total = 0.0;
        for (int r = 0; r < clients; ++r) {
            weight.push_back(1.0 / std::pow(r + 1.0, s));
            total += weight.back();
        }
        for (size_t i = 0; i < n; ++i) {
            size_t best = 0;
            for (size_t r = 0; r < current.size(); ++r) {
                current[r] += weight[r];
                if (current[r] > current[best])
                    best = r;
            }
            current[best] -= total;
            arrivals.push_back(rankToClient[best]);
        }
    }

    /** Coldest first, so the hottest clients are registered last and
     *  are the ones resident when the window opens. */
    std::vector<int>
    registrationOrder() const
    {
        return std::vector<int>(rankToClient.rbegin(),
                                rankToClient.rend());
    }
};

/**
 * The pipelined open-loop connection. The sender thread is the only
 * one that sends and the receiver the only one that receives; all
 * bookkeeping is under mu. PirTcpClient's send and receive paths share
 * only its closed flag, written when the connection is lost, which
 * ends the run.
 */
class OpenLoop
{
  public:
    OpenLoop(std::vector<Client> &clients, std::vector<u64> &gens,
             u16 port, SpanLog &log, Run &run)
        : clients_(clients), gens_(gens), log_(log), run_(run),
          conn_("127.0.0.1", port, 60.0),
          registering_(clients.size(), false), parked_(clients.size()),
          cap_(net::NetServerConfig{}.maxInFlightPerConnection)
    {
        // Framed before the window, so a re-registration costs the
        // sender only its transmission.
        for (const Client &c : clients) {
            PirRegisterKeys reg;
            reg.clientId = c.id;
            reg.paramsBlob = c.paramsBlob;
            reg.keyBlob = c.keyBlob;
            regFrames_.push_back(
                net::encodeFrame(serializeRegisterKeys(reg)));
        }
    }

    void
    run()
    {
        std::thread sender([this] { sendLoop(); });
        std::thread receiver([this] { receiveLoop(); });
        sender.join();
        receiver.join();
    }

  private:
    struct Work
    {
        bool reg = false;
        size_t client = 0;
        size_t retrieval = 0;
    };

    struct Frame
    {
        Work work;
        u64 gen = 0;
        u64 bytes = 0;
        u64 sentNs = 0;
    };

    bool
    allResolved() const
    {
        return resolved_ == run_.retrievals.size();
    }

    void
    fail(size_t i)
    {
        Retrieval &r = run_.retrievals[i];
        if (!r.ok && !r.failed) {
            r.failed = true;
            r.done = nowSec();
            ++resolved_;
        }
    }

    void
    sendLoop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        // An arrival is ready when due, a pipeline slot is free and the
        // previous frame has left; lateness beyond that is the
        // generator's own (gen.lag_ms).
        double slotFreeAt = 0.0, lastSendEnd = 0.0;
        for (;;) {
            if (dead_ || allResolved())
                break;
            if (static_cast<int>(fifo_.size()) >= cap_) {
                cv_.wait(lk);
                slotFreeAt = nowSec();
                continue;
            }
            Work wk;
            if (!retry_.empty()) {
                wk = retry_.front();
                retry_.pop_front();
            } else if (next_ < run_.retrievals.size()) {
                Retrieval &r = run_.retrievals[next_];
                const double now = nowSec();
                if (now < r.due) {
                    cv_.wait_until(
                        lk, Clock::time_point(
                                std::chrono::duration_cast<
                                    Clock::duration>(
                                    std::chrono::duration<double>(
                                        r.due))));
                    continue;
                }
                r.lag = now - std::max({r.due, slotFreeAt, lastSendEnd});
                wk.client = static_cast<size_t>(r.client);
                wk.retrieval = next_++;
            } else {
                cv_.wait(lk);
                continue;
            }
            Client &cl = clients_[wk.client];
            Frame f;
            f.work = wk;
            std::vector<u8> queryFrame;
            const std::vector<u8> *frame = &queryFrame;
            if (wk.reg) {
                frame = &regFrames_[wk.client];
            } else {
                if (registering_[wk.client]) {
                    parked_[wk.client].push_back(wk.retrieval);
                    continue;
                }
                Retrieval &r = run_.retrievals[wk.retrieval];
                ++r.attempts;
                PirQueryRef ref;
                ref.clientId = cl.id;
                ref.generation = f.gen = gens_[wk.client];
                ref.queryBlob = cl.queries[static_cast<size_t>(r.slot)];
                queryFrame = net::encodeFrame(serializeQueryRef(ref));
            }
            f.bytes = frame->size();
            f.sentNs = nowNs();
            fifo_.push_back(f);
            ++run_.ops;
            cv_.notify_all();
            lk.unlock();
            bool sent = true;
            try {
                conn_.sendRaw(*frame);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "send failed: %s\n", e.what());
                sent = false;
            }
            lk.lock();
            lastSendEnd = nowSec();
            if (!sent) {
                dead_ = true;
                cv_.notify_all();
                break;
            }
        }
    }

    void
    receiveLoop()
    {
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [this] {
                    return dead_ || !fifo_.empty() || allResolved();
                });
                if (dead_ || fifo_.empty())
                    break;
            }
            try {
                std::vector<u8> payload = conn_.recvFrame();
                const u64 tNs = nowNs();
                std::lock_guard<std::mutex> lk(mu_);
                Frame f = fifo_.front();
                fifo_.pop_front();
                onReply(f, std::move(payload), tNs);
                cv_.notify_all();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "receive failed: %s\n", e.what());
                std::lock_guard<std::mutex> lk(mu_);
                dead_ = true;
                cv_.notify_all();
                break;
            }
        }
        std::lock_guard<std::mutex> lk(mu_);
        if (dead_) {
            run_.connectionLost = true;
            for (size_t i = 0; i < run_.retrievals.size(); ++i)
                fail(i);
        }
    }

    void
    onReply(const Frame &f, std::vector<u8> payload, u64 t_ns)
    {
        const bool isError =
            peekWireKind(payload) == WireKind::ErrorResponse;
        const size_t c = f.work.client;
        Retrieval *r = f.work.reg ? nullptr
                                  : &run_.retrievals[f.work.retrieval];
        const u64 root = f.work.reg ? 0 : r->spanId;
        if (log_.enabled() && (f.work.reg || root != 0))
            log_.add(f.work.reg ? "frame.register" : "frame.query",
                     log_.newId(), root, root, f.sentNs, t_ns);
        if (isError)
            ++run_.failedOps;
        if (f.work.reg) {
            registering_[c] = false;
            if (!isError) {
                gens_[c] = deserializeHello(payload).generation;
                for (size_t i : parked_[c])
                    retry_.push_back(Work{false, c, i});
            } else {
                for (size_t i : parked_[c])
                    fail(i);
            }
            parked_[c].clear();
            return;
        }
        run_.queryWireBytes +=
            f.bytes + payload.size() + net::kFrameHeaderBytes;
        if (!isError) {
            r->ok = true;
            r->done = static_cast<double>(t_ns) / 1e9;
            r->response = std::move(payload);
            ++resolved_;
            return;
        }
        const NetErrorCode code = deserializeErrorResponse(payload).code;
        const bool keysGone = code == NetErrorCode::UnknownClient ||
                              code == NetErrorCode::StaleGeneration;
        if (!keysGone || r->attempts >= kMaxAttempts) {
            fail(f.work.retrieval);
        } else if (registering_[c]) {
            parked_[c].push_back(f.work.retrieval);
        } else if (gens_[c] != f.gen) {
            retry_.push_back(Work{false, c, f.work.retrieval});
        } else {
            registering_[c] = true;
            ++run_.reregistrations;
            retry_.push_back(Work{true, c, 0});
            parked_[c].push_back(f.work.retrieval);
        }
    }

    std::vector<Client> &clients_;
    std::vector<u64> &gens_;
    SpanLog &log_;
    Run &run_;
    net::PirTcpClient conn_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Frame> fifo_;  ///< Sent, reply pending, in send order.
    std::deque<Work> retry_;  ///< Sent before any new arrival.
    std::vector<std::vector<u8>> regFrames_; ///< Per client, framed.
    std::vector<bool> registering_;
    std::vector<std::vector<size_t>> parked_; ///< Wait for keys.
    size_t next_ = 0;
    size_t resolved_ = 0;
    bool dead_ = false;
    const int cap_;
};

/** Checks every response against the record oracle; returns the
 *  number that failed. Runs after the window, outside its timing. */
u64
verify(std::vector<Client> &clients, const PirParams &params, u64 seed,
       SpanLog &log, Run &run)
{
    u64 bad = 0;
    for (Retrieval &r : run.retrievals) {
        if (!r.ok)
            continue;
        const Client &cl = clients[static_cast<size_t>(r.client)];
        const u64 index = cl.indices[static_cast<size_t>(r.slot)];
        std::vector<std::vector<u64>> planes;
        try {
            ScopedSpan s(r.spanId ? &log : nullptr,
                         "ClientSession::decodeResponse", r.spanId,
                         r.spanId);
            planes = cl.session->decodeResponse(r.response);
        } catch (const Error &e) {
            std::fprintf(stderr, "decode failed: %s\n", e.what());
        }
        bool good = static_cast<int>(planes.size()) == params.planes;
        for (int p = 0; good && p < params.planes; ++p)
            good = planes[static_cast<size_t>(p)] ==
                   recordContent(params, seed, index, p);
        if (!good) {
            ++bad;
            r.ok = false;
            r.failed = true;
        }
    }
    return bad;
}

} // namespace

int
runLoad(int argc, char **argv)
{
    const Workload *w = findWorkload(argValue(argc, argv, "--workload", ""));
    if (!w)
        throw Error("load: unknown --workload");
    const u64 seed = std::stoull(argValue(argc, argv, "--seed", "1"));
    const double seconds =
        std::stod(argValue(argc, argv, "--seconds", "10"));
    const u16 port = static_cast<u16>(
        std::stoul(argValue(argc, argv, "--port", "0")));
    const bool trace = argValue(argc, argv, "--trace", "0") == "1";
    const std::string tracePath = argValue(argc, argv, "--trace-out", "");
    const PirParams params = workloadParams(*w);

    SpanLog log(trace);
    std::vector<Client> clients = makeClients(*w, params, seed);
    std::vector<u64> gens(clients.size(), 0);
    Rng rng(mix64(seed ^ 0x5ca1e));
    const size_t arrivals =
        w->openLoop
            ? static_cast<size_t>(std::llround(w->offeredQps * seconds))
            : 0;
    ClientSchedule schedule(w->clients, w->zipfS, arrivals, rng);
    Run run;
    registerAll(*w, clients, gens, schedule.registrationOrder(), port,
                &log, run);

    phase("measure");
    if (w->openLoop) {
        std::vector<double> offsets;
        for (size_t i = 0; i < arrivals; ++i)
            offsets.push_back(rng.uniformReal() * seconds);
        std::sort(offsets.begin(), offsets.end());
        OpenLoop loop(clients, gens, port, log, run);
        const double start = nowSec() + 0.05;
        for (size_t i = 0; i < arrivals; ++i) {
            Retrieval r;
            r.client = schedule.arrivals[i];
            r.slot = static_cast<int>(
                rng.uniform(static_cast<u64>(w->queriesPerClient)));
            r.due = r.start = start + offsets[i];
            r.spanId = log.enabled() && i % 2 == 0 ? log.newId() : 0;
            run.retrievals.push_back(std::move(r));
        }
        run.windowStart = start;
        loop.run();
        run.windowEnd = start;
        for (const Retrieval &r : run.retrievals) {
            run.windowEnd = std::max(run.windowEnd, r.done);
            if (r.spanId)
                log.add("retrieval", r.spanId, 0, r.spanId,
                        static_cast<u64>(r.due * 1e9),
                        static_cast<u64>(r.done * 1e9));
        }
    } else {
        closedLoop(*w, clients, gens, port, seconds, seed, log, run);
    }
    phase("done");

    const u64 badResponses = verify(clients, params, seed, log, run);

    std::string line;
    if (!std::getline(std::cin, line) || line != "go")
        throw Error("load: no go from the driver");

    std::vector<double> lat, latTraced, latUntraced, lag;
    u64 ok = 0, failed = 0;
    for (const Retrieval &r : run.retrievals) {
        if (r.ok) {
            ++ok;
            const double ms = (r.done - r.start) * 1e3;
            lat.push_back(ms);
            (r.spanId ? latTraced : latUntraced).push_back(ms);
        } else {
            ++failed;
        }
        if (w->openLoop)
            lag.push_back(r.lag * 1e3);
    }
    const double window = run.windowEnd - run.windowStart;
    Json res;
    res.num("attempted", static_cast<double>(run.retrievals.size()))
        .num("failed", static_cast<double>(failed))
        .num("bad_responses", static_cast<double>(badResponses))
        .num("ops", static_cast<double>(run.ops))
        .num("failed_ops", static_cast<double>(run.failedOps + badResponses))
        .num("connection_lost", run.connectionLost ? 1 : 0)
        .num("window_s", window)
        .num("qps", window > 0 ? static_cast<double>(ok) / window : 0.0)
        .num("latency_p50_ms", quantile(lat, 0.5))
        .num("latency_tail_ms", quantile(lat, w->tailQ))
        .num("tail_q", w->tailQ)
        .num("tail_beyond",
             static_cast<double>(samplesBeyond(lat, w->tailQ)))
        .num("register_p50_ms", quantile(run.registerMs, 0.5))
        .num("register_samples", static_cast<double>(run.registerMs.size()))
        .num("wire_kib_per_query",
             ok ? static_cast<double>(run.queryWireBytes) / 1024.0 /
                      static_cast<double>(ok)
                : 0.0)
        .num("reregistrations", static_cast<double>(run.reregistrations))
        .num("gen_lag_ms",
             w->openLoop ? quantile(lag, 0.99) : quantile(run.thinkMs, 0.99));

    bool replayOk = true;
    if (trace) {
        std::vector<ReplayItem> replay;
        for (const Retrieval &r : run.retrievals) {
            if (static_cast<int>(replay.size()) >= w->replayQueries)
                break;
            if (r.ok && r.client == 0)
                replay.push_back(ReplayItem{
                    &clients[0].queries[static_cast<size_t>(r.slot)],
                    r.response});
        }
        Json layers;
        layers.num("trace.latency_p50_ms", quantile(latTraced, 0.5))
            .num("trace.overhead_ms",
                 quantile(latTraced, 0.5) - quantile(latUntraced, 0.5))
            .num("client.decode_ms",
                 quantile(log.durationsMs("ClientSession::decodeResponse"),
                          0.5))
            .num("socket.query_p50_ms",
                 quantile(log.durationsMs(w->openLoop ? "frame.query"
                                                      : "PirTcpClient::query"),
                          0.5));
        replayOk = measureLayers(seed, clients, replay, log, layers);
        res.raw("layers", layers.done());
        if (!tracePath.empty())
            log.writeJson(tracePath);
    }
    res.num("replay_ok", replayOk ? 1 : 0);
    std::printf("result %s\n", res.done().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace servebench
