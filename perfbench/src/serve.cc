#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <thread>

#include "models.hh"
#include "workloads.hh"

using namespace mixq;

namespace pb {

namespace {

/** Item slice [off, off + k) of a batch-axis-0 or -1 tensor. */
Tensor
slice(const Tensor& x, size_t axis, size_t off, size_t k)
{
    std::vector<size_t> s = x.shape();
    size_t outer = 1, inner = 1;
    for (size_t d = 0; d < axis; ++d)
        outer *= s[d];
    for (size_t d = axis + 1; d < s.size(); ++d)
        inner *= s[d];
    size_t n = s[axis];
    s[axis] = k;
    Tensor o(s);
    for (size_t a = 0; a < outer; ++a)
        std::copy_n(x.data() + (a * n + off) * inner, k * inner,
                    o.data() + a * k * inner);
    return o;
}

ServeOptions
serveOptions()
{
    ServeOptions o;
    o.maxBatch = kMaxBatch;
    o.deadlineUs = kFillDeadlineUs;
    o.ompThreads = threadBudget().workerTeam;
    o.maxQueueItems = kQueueItems;
    o.overload = OverloadPolicy::Shed;
    return o;
}

/** Settle one future: classify its outcome and check its bits. */
template <typename OnOk>
void
settle(SubmitResult& r, const Tensor& ref, PhaseResult& res, OnOk onOk)
{
    try {
        Tensor y = r.future.get();
        if (bitEqual(y, ref))
            onOk();
        else
            ++res.wrong;
    } catch (const ServeError& e) {
        switch (e.code()) {
        case ServeError::Code::Shed: ++res.shed; break;
        case ServeError::Code::Expired: ++res.expired; break;
        default: ++res.failed; break;
        }
    } catch (...) {
        ++res.failed;
    }
}

/** A queue that keeps growing shows as later requests settling
    ever later: compare the first and last quarters' medians. */
bool
growing(const std::vector<double>& latMs)
{
    size_t q = latMs.size() / 4;
    if (q < 20)
        return false;
    std::vector<double> first(latMs.begin(), latMs.begin() + q);
    std::vector<double> last(latMs.end() - q, latMs.end());
    return median(last) > 2.0 * median(first) + 2.0;
}

/** Items/s settled in each of kRateWindows equal windows of
    [t0, end] (the calm-stretch estimate takes the 100 - kCalmPct
    percentile of these). */
std::vector<double>
ratePerWindow(const std::vector<std::pair<Clock::time_point, size_t>>& done,
              Clock::time_point t0, Clock::time_point end)
{
    const double winS =
        std::max(1e-9, msBetween(t0, end) * 1e-3 / double(kRateWindows));
    std::vector<double> rate(kRateWindows, 0.0);
    for (const auto& [at, items] : done)
        rate[std::min<size_t>(kRateWindows - 1,
                              size_t(msBetween(t0, at) * 1e-3 / winS))] +=
            double(items);
    for (double& r : rate)
        r /= winS;
    return rate;
}

} // namespace

Rig
makeRig(bool lstm, uint64_t seed)
{
    Rig rig;
    Clock::time_point t0 = Clock::now();
    if (lstm)
        rig.model = buildLstm();
    else
        rig.model = buildCnn();
    double buildS = msBetween(t0, Clock::now()) * 1e-3;

    // Request pool and its solo references, before the server starts
    // (not part of set-up: it is the benchmark's output check).
    SplitMix g(seed);
    if (lstm) {
        // Six requests each of 1, 2, 3 and 4 sequences: the size mix is
        // part of the workload, the tokens are the seed's.
        for (size_t i = 0; i < 24; ++i)
            rig.pool.push_back(lstmInput(1 + i % 4, g.next()));
    } else {
        Tensor all = cnnInput(256, seed);
        for (size_t i = 0; i < 256; ++i)
            rig.pool.push_back(slice(all, 0, i, 1));
    }
    for (const Tensor& x : rig.pool)
        rig.refs.push_back(rig.model->forward(x, false));

    t0 = Clock::now();
    pinSelf(CpuSet::Worker); // the worker thread inherits this mask
    rig.srv = std::make_unique<BatchServer>(
        *rig.model, 1, lstm ? lstmTraits() : cnnTraits(), serveOptions());
    pinSelf(CpuSet::ToAll);
    // Warm-up: three bursts of up to two full batches, then a few solo
    // requests.
    for (int burst = 0; burst < 3; ++burst) {
        std::vector<std::future<Tensor>> warm;
        for (size_t i = 0, items = 0;; ++i) {
            const Tensor& x = rig.pool[i % rig.pool.size()];
            items += x.dim(lstm ? 1 : 0);
            if (items > 2 * kMaxBatch)
                break;
            warm.push_back(rig.srv->submit(x).future);
        }
        for (auto& f : warm)
            f.get();
    }
    for (size_t i = 0; i < 4; ++i)
        rig.srv->submit(rig.pool[i]).future.get();
    rig.setupS = buildS + msBetween(t0, Clock::now()) * 1e-3;
    return rig;
}

PhaseResult
openLoop(Rig& rig, double rate, double seconds, uint64_t seed)
{
    // Seeded Poisson schedule: due offsets and pool indices.
    SplitMix g(seed);
    std::vector<double> due;
    std::vector<uint32_t> pick;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - g.unit()) / rate;
        if (t >= seconds)
            break;
        due.push_back(t);
        pick.push_back(uint32_t(g.below(rig.pool.size())));
    }
    const size_t n = due.size();

    struct Slot
    {
        SubmitResult r;
        Clock::time_point due, submitted;
        uint32_t span = 0;
    };
    std::vector<Slot> slots(n);
    PhaseResult res;
    res.offered = rate;
    res.sent = n;
    res.lateMs.resize(n);
    res.submitUs.resize(n);
    BatchServer::Stats s0 = rig.srv->stats();
    Tracer& tr = Tracer::get();
    const uint64_t reqBase = seed << 20;
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    Clock::time_point lastSettle = t0;
    std::vector<std::pair<Clock::time_point, size_t>> settled;

    // One load thread submits on schedule and, between due times,
    // polls the oldest outstanding future (one worker settles in FIFO
    // order). It spins rather than sleeps, on a CPU of its own: a
    // sleeping thread's wake-up on a shared VM added ~0.1 ms to every
    // latency and more in busy stretches. It never touches OpenMP: the
    // worker's team is the only one running while the server is up.
    std::thread load([&] {
        pinSelf(CpuSet::Load);
        res.latMs.reserve(n);
        res.seqMs.reserve(n);
        auto settleNext = [&](size_t i) {
            Slot& s = slots[i];
            res.seqMs.push_back(std::numeric_limits<double>::infinity());
            settle(s.r, rig.refs[pick[i]], res, [&] {
                Clock::time_point now = Clock::now();
                lastSettle = now;
                settled.emplace_back(now, 1);
                res.seqMs.back() = msBetween(s.due, now);
                res.latMs.push_back(res.seqMs.back());
                ++res.ok;
                res.items += 1;
                if (tr.on()) {
                    uint64_t endNs = uint64_t(now.time_since_epoch().count());
                    tr.record({"serve.queue_run",
                               uint64_t(s.submitted.time_since_epoch().count()),
                               endNs, tr.newId(), s.span, reqBase + i});
                    tr.record({"cnn.request",
                               uint64_t(s.due.time_since_epoch().count()),
                               endNs, s.span, 0, reqBase + i});
                }
            });
        };
        auto dueAt = [&](size_t i) {
            return t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[i]));
        };
        size_t next = 0, done = 0;
        while (done < n) {
            if (next < n && Clock::now() >= dueAt(next)) {
                Slot& s = slots[next];
                s.due = dueAt(next);
                Tensor x = rig.pool[pick[next]];
                Clock::time_point a = Clock::now();
                res.lateMs[next] = msBetween(s.due, a);
                s.r = rig.srv->submit(std::move(x));
                s.submitted = Clock::now();
                res.submitUs[next] = usBetween(a, s.submitted);
                if (tr.on()) {
                    s.span = tr.newId();
                    tr.record({"serve.submit",
                               uint64_t(a.time_since_epoch().count()),
                               uint64_t(s.submitted.time_since_epoch().count()),
                               tr.newId(), s.span, reqBase + next});
                }
                ++next;
            } else if (done < next &&
                       slots[done].r.future.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready) {
                settleNext(done++);
            }
        }
    });
    load.join();

    BatchServer::Stats s1 = rig.srv->stats();
    res.wallS = std::max(1e-9, msBetween(t0, lastSettle) * 1e-3);
    res.itemRate = ratePerWindow(settled, t0, lastSettle);
    res.batches = s1.batches - s0.batches;
    res.batchItems = s1.items - s0.items;
    res.queuePeak = s1.queuePeakItems;
    res.backlog = growing(res.latMs);
    return res;
}

PhaseResult
closedLoop(Rig& rig, int clients, double seconds, uint64_t seed)
{
    PhaseResult res;
    std::vector<PhaseResult> per(static_cast<size_t>(clients));
    BatchServer::Stats s0 = rig.srv->stats();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    // (settle time, latency, items) per client, merged in settle order
    // so the chunks of chunkedPercentile are stretches of time.
    struct Done
    {
        Clock::time_point at;
        double ms;
        size_t items;
    };
    std::vector<std::vector<Done>> done(static_cast<size_t>(clients));
    std::vector<std::thread> th;
    for (int c = 0; c < clients; ++c) {
        th.emplace_back([&, c] {
            pinSelf(CpuSet::Load);
            PhaseResult& r = per[size_t(c)];
            // Seed-drawn picks: a fixed walk would lock the two clients'
            // request sizes into one seed-dependent pairing.
            SplitMix g(seed * 1315423911ull + uint64_t(c));
            uint64_t req = (seed << 20) + (uint64_t(c) << 18);
            Tracer& tr = Tracer::get();
            while (Clock::now() < end) {
                size_t i = g.below(rig.pool.size());
                Tensor x = rig.pool[i];
                size_t items = x.dim(1);
                Span rs("lstm.request", req);
                Clock::time_point a = Clock::now();
                SubmitResult sr;
                {
                    Span ss("serve.submit", req);
                    sr = rig.srv->submit(std::move(x));
                }
                Clock::time_point sub = Clock::now();
                r.submitUs.push_back(usBetween(a, sub));
                ++r.sent;
                settle(sr, rig.refs[i], r, [&] {
                    Clock::time_point now = Clock::now();
                    done[size_t(c)].push_back({now, msBetween(a, now), items});
                    ++r.ok;
                    r.items += items;
                    if (tr.on())
                        tr.record({"serve.queue_run",
                                   uint64_t(sub.time_since_epoch().count()),
                                   uint64_t(now.time_since_epoch().count()),
                                   tr.newId(), Tracer::current(), req});
                });
                ++req;
            }
        });
    }
    for (auto& t : th)
        t.join();
    for (const PhaseResult& r : per) {
        res.sent += r.sent;
        res.ok += r.ok;
        res.shed += r.shed;
        res.expired += r.expired;
        res.failed += r.failed;
        res.wrong += r.wrong;
        res.items += r.items;
        res.submitUs.insert(res.submitUs.end(), r.submitUs.begin(),
                            r.submitUs.end());
    }
    std::vector<Done> all;
    for (const auto& d : done)
        all.insert(all.end(), d.begin(), d.end());
    std::sort(all.begin(), all.end(),
              [](const Done& a, const Done& b) { return a.at < b.at; });
    std::vector<std::pair<Clock::time_point, size_t>> settled;
    for (const Done& d : all) {
        res.latMs.push_back(d.ms);
        settled.emplace_back(d.at, d.items);
    }
    Clock::time_point lastSettle = all.empty() ? t0 : all.back().at;
    res.itemRate = ratePerWindow(settled, t0, lastSettle);
    BatchServer::Stats s1 = rig.srv->stats();
    res.wallS = std::max(1e-9, msBetween(t0, lastSettle) * 1e-3);
    res.batches = s1.batches - s0.batches;
    res.batchItems = s1.items - s0.items;
    res.queuePeak = s1.queuePeakItems;
    return res;
}

RateResult
rateWorkload(Rig& rig, double seconds, uint64_t seed, bool ladder)
{
    // Without the ladder: high rate and over rung half the run each.
    // With it: high 25%, ladder 60%, over 15%.
    RateResult rr;
    rr.high = openLoop(rig, kHighRate, (ladder ? 0.25 : 0.5) * seconds,
                       seed * 7 + 1);
    std::vector<Rung> rungs;
    for (size_t i = 0; ladder && i < kLadder.size(); ++i) {
        PhaseResult r = openLoop(rig, kLadder[i],
                                 0.60 * seconds / double(kLadder.size()),
                                 seed * 7 + 2 + i);
        rungs.push_back({kLadder[i], chunkedPercentile(r.seqMs, 99.0),
                         r.backlog});
        rr.rungs.push_back(std::move(r));
    }
    rr.over = openLoop(rig, kOverRate, (ladder ? 0.15 : 0.5) * seconds,
                       seed * 7 + 99);
    rr.goodput = percentile(rr.over.itemRate, 100.0 - kCalmPct);
    rr.maxRate = maxSustainableRate(rungs, kP99LimitMs);
    return rr;
}

} // namespace pb
