/**
 * @file
 * The in-process half of the traced run: per-layer readings taken by
 * timing calls into each module's public functions from here, with no
 * instrumentation added inside the library.
 *
 *   pir/session, pir/wire   ServerSession::answer, deserializeQuery,
 *                           serializeResponse on the socket's blobs
 *   pir/server              expandQuery, buildSelectors, rowSel, colTor
 *                           (and the fused expandAndSelect), with the
 *                           ServerCounters they advance
 *   net/registry            SessionRegistry::registerClient, and the
 *                           heap its sessions hold
 *   bfv                     subs, externalProduct
 *   ntt, poly kernels       NttTable forward/inverse, automorphismInto,
 *                           the fused MAC chain
 *
 * The replayed responses must equal the socket's bytes, and the
 * stage-by-stage response must equal ServerSession::answer's.
 *
 * Bytes moved by the bfv and kernel calls are computed from operand
 * sizes (inputs, keys, tables and outputs, each counted once per
 * call), not measured. RowSel's bytes per query come from the database
 * layout: records x planes x k residues x n x 8-byte words.
 */

#include <malloc.h>

#include "bench.hh"
#include "bfv/automorphism.hh"
#include "bfv/rgsw.hh"
#include "net/registry.hh"
#include "poly/kernels.hh"

namespace servebench {

namespace {

using namespace ive;

struct CallTiming
{
    double perCallSec = 0.0;
    u64 calls = 0;
};

/**
 * Calls fn in batches for about budget_sec, one span per batch;
 * per-call time is the median over batches of batch time / batch.
 */
template <typename Fn>
CallTiming
timeCalls(SpanLog &log, const char *name, double budget_sec, u64 batch,
          Fn &&fn)
{
    fn(); // Warm caches and workspaces.
    std::vector<double> perCall;
    CallTiming t;
    const double end = nowSec() + budget_sec;
    while (perCall.size() < 3 || nowSec() < end) {
        ScopedSpan s(&log, name, 0, 0);
        const double t0 = nowSec();
        for (u64 i = 0; i < batch; ++i)
            fn();
        perCall.push_back((nowSec() - t0) / static_cast<double>(batch));
        t.calls += batch;
    }
    t.perCallSec = quantile(perCall, 0.5);
    return t;
}

/** Heap bytes in use across all arenas, MiB: what allocations add to
 *  the resident set, unlike RSS, which freed memory being reused
 *  hides. */
double
heapInUseMib()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

double
p50(const SpanLog &log, const char *name)
{
    return quantile(log.durationsMs(name), 0.5);
}

} // namespace

bool
measureLayers(u64 seed,
              const std::vector<Client> &clients,
              const std::vector<ReplayItem> &replay, SpanLog &log,
              Json &out)
{
    const Client &c0 = clients.at(0);
    ServerSession sess(c0.paramsBlob);
    const PirParams &params = sess.params();
    const HeContext &ctx = sess.context();
    const Ring &ring = ctx.ring();
    {
        ScopedSpan s(&log, "Database::fill", 0, 0);
        sess.database().fill([&](u64 entry, int plane) {
            return recordContent(params, seed, entry, plane);
        });
    }
    sess.ingestKeys(c0.keyBlob);
    PirServer engine(ctx, params, &sess.database(),
                     deserializeCompatibleKeys(ctx, params, c0.keyBlob));

    // --- pir/session, pir/wire, pir/server -------------------------
    bool same = true;
    ServerCountersSnapshot ops;
    for (const ReplayItem &item : replay) {
        const u64 req = log.newId();
        std::vector<u8> answer;
        {
            ScopedSpan s(&log, "ServerSession::answer", 0, req);
            answer = sess.answer(*item.query);
        }
        same = same && answer == item.socketResponse;

        ScopedSpan root(&log, "replay.stages", 0, req);
        PirQuery q = [&] {
            ScopedSpan s(&log, "deserializeQuery", root.id(), req);
            return deserializeQuery(ctx, *item.query);
        }();
        const ServerCountersSnapshot before = engine.counters().snapshot();
        std::vector<BfvCiphertext> leaves = [&] {
            ScopedSpan s(&log, "PirServer::expandQuery", root.id(), req);
            return engine.expandQuery(q);
        }();
        std::vector<RgswCiphertext> sel = [&] {
            ScopedSpan s(&log, "PirServer::buildSelectors", root.id(), req);
            return engine.buildSelectors(leaves);
        }();
        PirResponse resp;
        for (int plane = 0; plane < params.planes; ++plane) {
            std::vector<BfvCiphertext> cols = [&] {
                ScopedSpan s(&log, "PirServer::rowSel", root.id(), req);
                return engine.rowSel(leaves, plane);
            }();
            ScopedSpan s(&log, "PirServer::colTor", root.id(), req);
            resp.planes.push_back(engine.colTor(std::move(cols), sel));
        }
        const ServerCountersSnapshot after = engine.counters().snapshot();
        ops.subsOps += after.subsOps - before.subsOps;
        ops.externalProducts +=
            after.externalProducts - before.externalProducts;
        ops.plainMulAccs += after.plainMulAccs - before.plainMulAccs;
        std::vector<u8> bytes = [&] {
            ScopedSpan s(&log, "serializeResponse", root.id(), req);
            return serializeResponse(ctx, resp);
        }();
        same = same && bytes == answer;

        std::vector<RgswCiphertext> fusedSel;
        ScopedSpan s(&log, "PirServer::expandAndSelect", root.id(), req);
        (void)engine.expandAndSelect(q, 0, params.d, fusedSel);
    }
    const double nq = std::max<double>(1.0, static_cast<double>(replay.size()));
    const double rowselBytes = static_cast<double>(
        params.numEntries() * static_cast<u64>(params.planes) *
        static_cast<u64>(ring.k()) * ring.n * 8);
    const double rowselMs = p50(log, "PirServer::rowSel");
    out.num("replay.queries", static_cast<double>(replay.size()))
        .num("session.answer_ms", p50(log, "ServerSession::answer"))
        .num("wire.query_decode_ms", p50(log, "deserializeQuery"))
        .num("wire.response_encode_ms", p50(log, "serializeResponse"))
        .num("stage.expand_ms", p50(log, "PirServer::expandQuery"))
        .num("stage.selectors_ms", p50(log, "PirServer::buildSelectors"))
        .num("stage.expand_select_ms",
             p50(log, "PirServer::expandAndSelect"))
        .num("stage.rowsel_ms", rowselMs)
        .num("stage.fold_ms", p50(log, "PirServer::colTor"))
        .num("stage.rowsel_bytes_per_query", rowselBytes)
        .num("stage.rowsel_gbps",
             rowselMs > 0 ? rowselBytes / (rowselMs / 1e3) / 1e9 : 0.0)
        .num("server.subs_ops", static_cast<double>(ops.subsOps) / nq)
        .num("server.external_products",
             static_cast<double>(ops.externalProducts) / nq)
        .num("server.plain_mul_accs",
             static_cast<double>(ops.plainMulAccs) / nq);

    // --- net/registry ----------------------------------------------
    {
        net::SessionRegistry registry(ctx, params, &sess.database());
        const size_t sessions = 8;
        const double heap0 = heapInUseMib();
        for (size_t i = 0; i < sessions; ++i) {
            const Client &c = clients[i % clients.size()];
            ScopedSpan s(&log, "SessionRegistry::registerClient", 0, 0);
            registry.registerClient(1 + i, c.paramsBlob, c.keyBlob);
        }
        out.num("registry.register_ms",
                p50(log, "SessionRegistry::registerClient"))
            .num("registry.rss_per_client_mib",
                 (heapInUseMib() - heap0) / static_cast<double>(sessions));
    }

    // --- bfv and kernels at the workload's ring --------------------
    Rng rng(mix64(seed ^ 0xb1f));
    SecretKey sk(ctx, rng);
    const std::vector<u64> plain = recordContent(params, seed, 0, 0);
    const BfvCiphertext ct = encryptPlain(ctx, sk, rng, plain);
    const RgswCiphertext rgsw = encryptRgswConst(ctx, sk, rng, 1);
    const EvkKey evk = genEvk(ctx, sk, rng, ctx.n() + 1);
    const double word = 8.0;
    const double n = static_cast<double>(ring.n);
    const double polyBytes = static_cast<double>(ring.k()) * n * word;
    const double ctBytes = 2 * polyBytes;

    CallTiming subsT = timeCalls(log, "subs", 0.3, 4, [&] {
        BfvCiphertext o = subs(ctx, ct, evk);
        (void)o;
    });
    CallTiming extT = timeCalls(log, "externalProduct", 0.3, 4, [&] {
        BfvCiphertext o = externalProduct(ctx, rgsw, ct);
        (void)o;
    });
    out.num("bfv.subs_ms", subsT.perCallSec * 1e3)
        .num("bfv.subs_calls", static_cast<double>(subsT.calls))
        .num("bfv.subs_bytes",
             (2 + ctx.config().ellKs) * ctBytes)
        .num("bfv.external_product_ms", extT.perCallSec * 1e3)
        .num("bfv.external_product_calls", static_cast<double>(extT.calls))
        .num("bfv.external_product_bytes",
             (2 + 2 * ctx.config().ellRgsw) * ctBytes);

    const NttTable &table = ring.ntt[0];
    std::vector<u64> a(ct.a.residues(0).begin(), ct.a.residues(0).end());
    CallTiming fwd = timeCalls(log, "NttTable::forward", 0.2, 256,
                               [&] { table.forward(a); });
    CallTiming inv = timeCalls(log, "NttTable::inverse", 0.2, 256,
                               [&] { table.inverse(a); });
    RnsPoly coeff = ct.a;
    coeff.fromNtt(ring);
    RnsPoly moved(ring, Domain::Coeff);
    std::vector<u64> map(ring.n);
    CallTiming aut = timeCalls(log, "RnsPoly::automorphismInto", 0.2, 64,
                               [&] {
                                   coeff.automorphismInto(ring, 3, moved,
                                                          map);
                               });
    const Modulus &mod = ring.base.modulus(0);
    std::span<const u64> x = ct.a.residues(0), y = ct.b.residues(0);
    std::vector<u128> acc(ring.n);
    std::vector<u64> res(ring.n);
    const u64 chain = params.d0;
    CallTiming mac = timeCalls(log, "kernels::macAccumulate", 0.2, 16, [&] {
        std::fill(acc.begin(), acc.end(), u128{0});
        for (u64 i = 0; i < chain; ++i)
            kernels::macAccumulate(acc.data(), x.data(), y.data(), ring.n);
        kernels::macReduce(res.data(), acc.data(), ring.n, mod);
    });
    const double butterflies = n / 2 * std::log2(n);
    out.num("kernel.ntt_fwd_us", fwd.perCallSec * 1e6)
        .num("kernel.ntt_fwd_calls", static_cast<double>(fwd.calls))
        .num("kernel.ntt_fwd_butterflies", butterflies)
        .num("kernel.ntt_fwd_bytes", 4 * n * word)
        .num("kernel.ntt_inv_us", inv.perCallSec * 1e6)
        .num("kernel.ntt_inv_calls", static_cast<double>(inv.calls))
        .num("kernel.ntt_inv_butterflies", butterflies)
        .num("kernel.ntt_inv_bytes", 4 * n * word)
        .num("kernel.automorphism_us", aut.perCallSec * 1e6)
        .num("kernel.automorphism_calls", static_cast<double>(aut.calls))
        .num("kernel.automorphism_bytes", 2 * polyBytes + n * word)
        .num("kernel.mac_gmacs",
             static_cast<double>(chain) * n / mac.perCallSec / 1e9)
        .num("kernel.mac_calls", static_cast<double>(mac.calls))
        .num("kernel.mac_bytes",
             2 * static_cast<double>(chain) * n * word + n * word);
    return same;
}

} // namespace servebench
