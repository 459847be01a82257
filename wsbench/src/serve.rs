//! The serve workloads, both closed loop: each client thread sends its next
//! call only once the previous reply is back.
//!
//! * `serve_miss` (fleet ETA stream): alternating single `embed` and `eta`
//!   calls, every call on a distinct (path, 5-minute slot) key. The key
//!   space is ~1000x the cache, so every call pays the fused f32 forward,
//!   the GBR head (for `eta`), and the channel/executor wake.
//! * `serve_hot` (route recommender + similar trips): the dataset's
//!   candidate groups (the routes offered for one trip, sharing its
//!   departure) form a Zipf-skewed hot set far smaller than the cache. A
//!   call is a top-10 `knn` (query: a uniformly drawn group's driven route
//!   at its departure) over a `CORPUS`-vector IVF index with probability
//!   1/`KNN_EVERY`, otherwise `embed_many` over one group's candidates at
//!   the group's departure, as the route recommender ranks them. One hot
//!   reload happens in the middle of every second of the run; each clears
//!   the cache and is followed by a burst of misses.
//!
//! Throughput and latency are taken per one-second window. An untraced run
//! sets up several cities, each with its own server and index, and the
//! servers take turns one window at a time; each figure is the mean over
//! the cities of the city's median over its windows. Medians keep a burst
//! of interference on a shared host from moving the figures, and taking
//! turns spreads a slow spell of the host over every city.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsccl_core::encoder::{BatchScratch, EncoderWeights, TemporalPathEncoder};
use wsccl_core::{TrainedRepresenter, WscModel};
use wsccl_datagen::{CandidateGroup, TemporalPathSample};
use wsccl_downstream::index::{
    recall_at_k, to_f32, AnnConfig, AnnIndex, ExactIndex, Neighbor, VectorIndex,
};
use wsccl_nn::Parameters;
use wsccl_roadnet::Path;
use wsccl_serve::{Client, ServeConfig, ServeError, ServeStats, Server};
use wsccl_traffic::SimTime;

use crate::common::{self, Data, EtaEval, CACHE_CAPACITY, MAX_BATCH, SETUP_REPEATS};
use crate::trace::{Span, Tracer};
use crate::util::{self, mean, median, time_per_op_ns, Hist, Pinned, Rng, Zipf};
use crate::{Opts, Report, Workload};

/// Closed-loop client threads. `serve_miss` runs two (the host's core
/// count), so the batcher sees concurrent requests. `serve_hot` runs one:
/// with two, one client's `embed_many` waited behind the other's `knn` scan
/// in the reply sweep, which doubled p50 and amplified every slowdown of
/// the shared host in p99.
fn clients(hot: bool) -> u64 {
    if hot {
        1
    } else {
        2
    }
}
/// Unlabeled paths in the dataset: the path pool both workloads draw from.
const POOL_PATHS: usize = 2000;
/// Five-minute slots in a week: the cache key's time component.
const SLOTS: u64 = 2016;
/// Candidate groups in the `serve_hot` dataset: the hot set, 64 x 6 = 384
/// keys against a 4,096-entry cache. The group count, the Zipf exponent
/// and the knn share are assumptions; no trace of real traffic fixes them.
const HOT_GROUPS: usize = 64;
const ZIPF_S: f64 = 1.1;
/// One call in this many (chosen at random per call) is a `knn`.
const KNN_EVERY: usize = 8;
const K: usize = 10;
/// Vectors in the similarity index: 16k x 32 f32 is about one core's 2 MiB
/// L2. A 100k-vector index lives in the L3 this host shares with other
/// tenants, and its scan time swung with their load by more than the
/// benchmark's bounds allow.
const CORPUS: usize = 16_000;
const NPROBE: usize = 8;
/// Each client keeps its first call after every such interval, to be
/// checked against direct calls after the run. Keeping by time, not by
/// count, holds the benchmark's own memory constant as throughput changes.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(10);
const WARMUP_CALLS: u64 = 2048;
const RECALL_QUERIES: usize = 100;
const RECALL_FLOOR: f64 = 0.9;

struct Setup {
    /// The city's seed: it drives the dataset, the weights and the keys.
    seed: u64,
    data: Data,
    encoder: Arc<TemporalPathEncoder>,
    encoder_build_s: f64,
    /// Two weight sets: generation `g` of the served model uses `g % 2`.
    weights: [(Parameters, EncoderWeights); 2],
    direct: [TrainedRepresenter; 2],
    freeze_s: f64,
    eta: EtaEval,
    pool: Vec<TemporalPathSample>,
    slot_offset: u64,
    /// The hot set of `serve_hot` (empty on `serve_miss`).
    groups: Vec<CandidateGroup>,
    zipf: Zipf,
    index: Option<Arc<AnnIndex>>,
    corpus: Vec<Vec<f32>>,
}

impl Setup {
    fn rep(&self, generation: usize) -> TrainedRepresenter {
        let (p, w) = &self.weights[generation % 2];
        TrainedRepresenter::from_parts(Arc::clone(&self.encoder), p.clone(), w.clone(), "served")
    }

    /// The `idx`-th key of the miss stream: distinct for every
    /// `idx < POOL_PATHS * SLOTS`.
    fn miss_key(&self, idx: u64) -> (&Path, SimTime) {
        let n = self.pool.len() as u64;
        let slot = (self.slot_offset + idx / n) % SLOTS;
        let jitter = (idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 300;
        (&self.pool[(idx % n) as usize].path, SimTime::new((slot * 300 + jitter) as u32))
    }

    /// The keys of one candidate group: every candidate at its departure.
    fn group_keys(g: &CandidateGroup) -> impl Iterator<Item = (&Path, SimTime)> {
        g.candidates.iter().map(|p| (p, g.departure))
    }

    /// Every hot key, group by group.
    fn hot_keys(&self) -> Vec<(&Path, SimTime)> {
        self.groups.iter().flat_map(Self::group_keys).collect()
    }

    /// The `knn` query of a group: its driven route (candidate 0) at its
    /// departure.
    fn trip(g: &CandidateGroup) -> (&Path, SimTime) {
        (&g.candidates[0], g.departure)
    }
}

/// A spawned, warmed server, the representers its scheduled reloads will
/// install (in order), and the state that carries over from one measured
/// slice to the next: the reload count and each client's call stream.
struct Live {
    server: Server,
    reloads: std::vec::IntoIter<TrainedRepresenter>,
    gens: Generations,
    streams: Vec<Stream>,
}

/// One client's call stream: a generator and the index of its next call.
/// It lives with the server, so a client's calls form one sequence over
/// all the slices it is measured in, and miss keys never repeat.
struct Stream {
    rng: Rng,
    next: u64,
}

/// Serving (server, clients, reloader) runs on one CPU, the last this
/// process may use. Left to the scheduler, the server and a client thread
/// on a 2-vCPU VM shared one vCPU in some runs and sat on different vCPUs
/// in others, for minutes at a time. A hand-off across vCPUs cost about
/// three times one on a single vCPU, and `serve_hot` throughput differed
/// 2.3x between the two placements. On one CPU every hand-off is a context
/// switch, whatever the scheduler would have chosen.
fn serving_cpu() -> Option<usize> {
    util::allowed_cpus().last().copied()
}

/// The seed of the `i`-th city an untraced run sets up; the first is the
/// workload seed itself, so a traced run serves the same city.
fn city_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        Rng::new(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
    }
}

fn setup(tr: &Tracer, parent: u64, opts: &Opts, seed: u64) -> Setup {
    let hot_workload = opts.workload == Workload::ServeHot;
    let groups = if hot_workload { HOT_GROUPS } else { 0 };
    let cfg = common::dataset_config(seed, POOL_PATHS, groups);
    let file = common::out_path(&format!("serve-seed{seed}.wsccl-ds"));
    let data = common::dataset(tr, parent, &cfg, &file);
    let (encoder, encoder_build_s) = common::encoder(tr, parent, &data, seed);

    let wcfg = common::wsccl_config(seed);
    let (weights, _) = tr.span("core.init_weights", parent, |_| {
        [seed, seed ^ 0x0B0B].map(|seed| {
            let model = WscModel::new(Arc::clone(&encoder), wcfg.clone(), seed);
            let (p, w) = model.weights();
            (p.clone(), w.clone())
        })
    });
    let (direct, freeze_s) = {
        let mk = |g: usize| {
            let (p, w) = &weights[g];
            TrainedRepresenter::from_parts(Arc::clone(&encoder), p.clone(), w.clone(), "direct")
        };
        let (a, freeze_s) = tr.span("core.freeze", parent, |_| mk(0));
        let (b, _) = tr.span("core.freeze", parent, |_| mk(1));
        ([a, b], freeze_s)
    };
    let eta = common::eta_eval(tr, parent, &direct[0], &data.source);

    let pool_src = data.source.unlabeled_pool();
    let pool: Vec<TemporalPathSample> = (0..pool_src.len()).map(|i| pool_src.get(i)).collect();
    let mut rng = Rng::new(seed ^ 0x5EED_4E75);
    let slot_offset = rng.below(SLOTS as usize) as u64;
    let groups: Vec<CandidateGroup> =
        (0..data.source.num_groups()).map(|i| data.source.group(i)).collect();

    let (index, corpus) = if hot_workload {
        // Each pool path replayed at departures 15 minutes apart.
        let (corpus, _) = tr.span("core.embed", parent, |_| {
            let mut scratch = BatchScratch::default();
            let keys: Vec<(&Path, SimTime)> = (0..CORPUS)
                .map(|i| {
                    let s = &pool[i % pool.len()];
                    (&s.path, s.departure.advance((i / pool.len()) as f64 * 900.0))
                })
                .collect();
            keys.chunks(64)
                .flat_map(|c| direct[0].embed_batch_with(c, &mut scratch))
                .map(|v| to_f32(&v))
                .collect::<Vec<_>>()
        });
        let ids: Vec<u64> = (0..corpus.len() as u64).collect();
        let (index, _) = tr.span("downstream.index.build", parent, |_| {
            let cfg = AnnConfig { nprobe: NPROBE, ..AnnConfig::default() };
            AnnIndex::build(corpus[0].len(), &ids, &corpus, &cfg)
        });
        (Some(Arc::new(index)), corpus)
    } else {
        (None, Vec::new())
    };

    Setup {
        seed,
        data,
        encoder,
        encoder_build_s,
        weights,
        direct,
        freeze_s,
        eta,
        pool,
        slot_offset,
        zipf: Zipf::new(groups.len().max(1), ZIPF_S),
        groups,
        index,
        corpus,
    }
}

/// Spawn a server on generation 0, install the ETA head (and index), build
/// the reload representers, and warm the server up.
fn spawn_warm(tr: &Tracer, parent: u64, s: &Setup, reloads: usize) -> Live {
    // The server thread keeps the CPU it is spawned on.
    let _pin = serving_cpu().map(Pinned::to);
    tr.span("serve.warmup", parent, |_| {
        let cfg = ServeConfig {
            max_batch: MAX_BATCH,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        };
        let server = Server::spawn(s.rep(0), cfg);
        let client = server.client();
        client.set_eta_head(s.eta.head.clone()).expect("install the ETA head");
        let reloads: Vec<_> = (1..=reloads).map(|g| s.rep(g)).collect();
        if let Some(index) = &s.index {
            client.set_index(Arc::clone(index) as Arc<dyn VectorIndex>).expect("install the index");
            for g in &s.groups {
                let keys: Vec<(&Path, SimTime)> = Setup::group_keys(g).collect();
                client.embed_many(&keys).expect("warm-up embed_many");
            }
            for g in s.groups.iter().take(16) {
                let (p, t) = Setup::trip(g);
                client.knn(p, t, K).expect("warm-up knn");
            }
        } else {
            for idx in 0..WARMUP_CALLS {
                let (p, t) = s.miss_key(idx);
                client.embed(p, t).expect("warm-up embed");
            }
        }
        let streams = (0..clients(s.index.is_some()))
            .map(|c| Stream {
                rng: Rng::new(s.seed ^ (c + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
                next: 0,
            })
            .collect();
        Live { server, reloads: reloads.into_iter(), gens: Generations::default(), streams }
    })
    .0
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Call {
    Embed,
    Eta,
    Many,
    Knn,
}

enum Got {
    Embed(Arc<Vec<f64>>),
    Eta(f64),
    Many(Vec<Arc<Vec<f64>>>),
    Knn(Vec<Neighbor>),
}

/// A kept call: its keys, the reload generations it may have seen
/// (`lo..=hi`), and the reply.
struct Sample {
    keys: Vec<(Path, SimTime)>,
    lo: u64,
    hi: u64,
    got: Got,
}

/// Reloads begun and completed; a call that reads `completed` = a before
/// sending and `started` = b after its reply saw a generation in `a..=b`.
#[derive(Default)]
struct Generations {
    started: AtomicU64,
    completed: AtomicU64,
}

#[derive(Default)]
struct ClientOut {
    /// Latency histograms keyed by (one-second window the call completed
    /// in, call kind).
    hists: BTreeMap<(u64, Call), Hist>,
    ok: u64,
    err: u64,
    items: u64,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

struct Ctx<'a> {
    s: &'a Setup,
    hot: bool,
    start: Instant,
    deadline: Instant,
    tr: &'a Tracer,
    parent: u64,
    gens: &'a Generations,
}

fn client_loop(ctx: &Ctx, c: u64, client: Client, stream: &mut Stream) -> ClientOut {
    let s = ctx.s;
    let mut out = ClientOut::default();
    let rng = &mut stream.rng;
    let mut group: Vec<(&Path, SimTime)> = Vec::new();
    let mut next_keep = ctx.start;
    for j in stream.next.. {
        let t0 = Instant::now();
        if t0 >= ctx.deadline {
            stream.next = j;
            break;
        }
        let keep = t0 >= next_keep;
        if keep {
            next_keep = t0 + SAMPLE_INTERVAL;
        }
        group.clear();
        let kind = if !ctx.hot {
            group.push(s.miss_key(WARMUP_CALLS + c + clients(false) * j));
            if j % 2 == 0 {
                Call::Embed
            } else {
                Call::Eta
            }
        } else if rng.below(KNN_EVERY) == 0 {
            group.push(Setup::trip(&s.groups[rng.below(s.groups.len())]));
            Call::Knn
        } else {
            group.extend(Setup::group_keys(&s.groups[s.zipf.sample(rng)]));
            Call::Many
        };
        let lo = ctx.gens.completed.load(Ordering::Acquire);
        let t_send = Instant::now();
        let (p, t) = group[0];
        let result: Result<Got, ServeError> = match kind {
            Call::Embed => client.embed(p, t).map(Got::Embed),
            Call::Eta => client.eta(p, t).map(Got::Eta),
            Call::Knn => client.knn(p, t, K).map(Got::Knn),
            Call::Many => client
                .embed_many(&group)
                .and_then(|replies| replies.into_iter().collect::<Result<Vec<_>, _>>())
                .map(Got::Many),
        };
        let t1 = Instant::now();
        let hi = ctx.gens.started.load(Ordering::Acquire);
        let window = (t1 - ctx.start).as_secs();
        out.hists
            .entry((window, kind))
            .or_insert_with(Hist::new)
            .record((t1 - t_send).as_nanos() as u64);
        out.items += group.len() as u64;
        match result {
            Ok(got) => {
                out.ok += 1;
                if keep {
                    let keys = group.iter().map(|&(p, t)| (p.clone(), t)).collect();
                    out.samples.push(Sample { keys, lo, hi, got });
                }
            }
            Err(e) => {
                out.err += 1;
                eprintln!("[wsbench] client {c} call {j}: {e}");
            }
        }
        if ctx.tr.on() {
            let id = ctx.tr.new_id();
            out.spans.push(ctx.tr.make(
                id,
                ctx.parent,
                ((c + 1) << 40) | j,
                "serve.call",
                t_send,
                t1,
            ));
        }
    }
    out
}

struct Pass {
    outs: Vec<ClientOut>,
    pre: ServeStats,
    post: ServeStats,
    seconds: u64,
    reloads_scheduled: u64,
    reload_failures: u64,
    /// The CPU serving ran on, if pinning worked.
    cpu: Option<usize>,
}

impl Pass {
    fn calls(&self) -> u64 {
        self.outs.iter().map(|o| o.ok + o.err).sum()
    }

    /// Latencies of the calls of `kind` (every kind when `None`) that
    /// completed in window `w` (any window when `None`), over all clients.
    fn hist(&self, kind: Option<Call>, w: Option<u64>) -> Hist {
        let mut h = Hist::new();
        for ((win, k), x) in self.outs.iter().flat_map(|o| &o.hists) {
            if kind.is_none_or(|c| c == *k) && w.is_none_or(|w| w == *win) {
                h.merge(x);
            }
        }
        h
    }

    /// Per one-second window: calls completed, p50 and p99 latency (us).
    fn windows(&self) -> Vec<[f64; 3]> {
        (0..self.seconds)
            .map(|w| {
                let h = self.hist(None, Some(w));
                [h.len() as f64, h.quantile(0.50) / 1e3, h.quantile(0.99) / 1e3]
            })
            .collect()
    }
}

/// Medians over windows of calls per second, p50 and p99.
fn window_medians(windows: &[[f64; 3]]) -> [f64; 3] {
    [0, 1, 2].map(|i| median(&windows.iter().map(|w| w[i]).collect::<Vec<_>>()))
}

/// Serve `seconds` one-second windows on `live`, with one reload in the
/// middle of each on `serve_hot`. The server keeps running afterwards.
fn measure(
    tr: &Tracer,
    parent: u64,
    s: &Setup,
    live: &mut Live,
    seconds: u64,
    opts: &Opts,
) -> Pass {
    let hot = opts.workload == Workload::ServeHot;
    // Client threads inherit the serving CPU; the reloader is this thread.
    let pin = serving_cpu().map(Pinned::to);
    let Live { server, reloads, gens, streams } = live;
    let pre = server.client().stats().expect("stats before the run");
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let ctx = Ctx { s, hot, start, deadline, tr, parent, gens };
    let mut reloads_scheduled = 0;
    let mut reload_failures = 0;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let client = server.client();
                let ctx = &ctx;
                scope.spawn(move || client_loop(ctx, c as u64, client, stream))
            })
            .collect();
        let reloader = server.client();
        for (r, rep) in reloads.take(if hot { seconds as usize } else { 0 }).enumerate() {
            let at = start + Duration::from_millis(500 + 1000 * r as u64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            gens.started.fetch_add(1, Ordering::AcqRel);
            let (res, _) = tr.span("serve.reload", parent, |_| reloader.reload(rep));
            gens.completed.fetch_add(1, Ordering::AcqRel);
            reloads_scheduled += 1;
            reload_failures += u64::from(res.is_err());
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let post = server.client().stats().expect("stats after the run");
    Pass {
        outs,
        pre,
        post,
        seconds,
        reloads_scheduled,
        reload_failures,
        cpu: pin.and_then(|p| p.cpu),
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a kept reply equals the direct library calls on generation `g`.
fn matches_direct(s: &Setup, sample: &Sample, g: u64) -> bool {
    let rep = &s.direct[(g % 2) as usize];
    let embed = |(p, t): &(Path, SimTime)| rep.embed(p, *t);
    match &sample.got {
        Got::Embed(v) => bits_eq(v, &embed(&sample.keys[0])),
        Got::Eta(y) => s.eta.head.predict(&embed(&sample.keys[0])).to_bits() == y.to_bits(),
        Got::Many(vs) => {
            vs.len() == sample.keys.len()
                && vs.iter().zip(&sample.keys).all(|(v, k)| bits_eq(v, &embed(k)))
        }
        Got::Knn(n) => {
            s.index.as_ref().is_some_and(|ix| ix.knn(&to_f32(&embed(&sample.keys[0])), K) == *n)
        }
    }
}

/// Output-check counters summed over the measured passes.
#[derive(Default)]
struct Tally {
    sent: u64,
    items: u64,
    served: u64,
    errors: u64,
    reloads: u64,
    reloads_scheduled: u64,
    reload_errors: u64,
    kept: u64,
    bad: u64,
}

impl Tally {
    /// Count a pass and check its kept replies against `s`'s direct calls.
    fn add(&mut self, s: &Setup, pass: &Pass) {
        self.sent += pass.calls();
        self.items += pass.outs.iter().map(|o| o.items).sum::<u64>();
        self.errors += pass.outs.iter().map(|o| o.err).sum::<u64>();
        self.served += pass.post.served - pass.pre.served;
        self.reloads += pass.post.reloads - pass.pre.reloads;
        self.reloads_scheduled += pass.reloads_scheduled;
        self.reload_errors +=
            pass.post.reload_errors - pass.pre.reload_errors + pass.reload_failures;
        for x in pass.outs.iter().flat_map(|o| &o.samples) {
            self.kept += 1;
            self.bad += u64::from(!(x.lo..=x.hi).any(|g| matches_direct(s, x, g)));
        }
    }

    /// Output checks; every failure also counts as a failed operation.
    fn report(&self, report: &mut Report) {
        let Tally {
            sent,
            items,
            served,
            errors,
            reloads,
            reloads_scheduled,
            reload_errors,
            kept,
            bad,
        } = *self;
        report.attempted += sent;
        report.failed += errors + bad;
        report.check(
            "served_plus_errors_equals_sent",
            served == items && errors == 0,
            format!(
                "{sent} calls ({items} items) sent, server answered {served} items, {errors} typed errors"
            ),
        );
        report.check(
            "reloads_as_scheduled",
            reloads == reloads_scheduled && reload_errors == 0,
            format!(
                "{reloads} of {reloads_scheduled} scheduled reloads, {reload_errors} reload errors"
            ),
        );
        report.check(
            "served_equals_direct",
            bad == 0 && kept > 0,
            format!("{bad} of {kept} kept replies differ from direct representer/head/index calls"),
        );
    }
}

/// Recall@10 of the served index against exact search on the first
/// `RECALL_QUERIES` hot keys.
fn knn_recall(s: &Setup, index: &AnnIndex) -> f64 {
    let ids: Vec<u64> = (0..s.corpus.len() as u64).collect();
    let exact = ExactIndex::build(s.corpus[0].len(), &ids, &s.corpus);
    let keys = s.hot_keys();
    let n = RECALL_QUERIES.min(keys.len());
    keys[..n]
        .iter()
        .map(|&(p, t)| {
            let q = to_f32(&s.direct[0].embed(p, t));
            recall_at_k(&exact.knn(&q, K), &index.knn(&q, K))
        })
        .sum::<f64>()
        / n as f64
}

/// Check the recall@10 of every city's index (none on `serve_miss`): the
/// lowest must reach the floor.
fn check_recall(report: &mut Report, recalls: &[f64]) {
    if let Some(low) = recalls.iter().copied().reduce(f64::min) {
        report.set("downstream.index.recall_at_10", low);
        let all: Vec<String> = recalls.iter().map(|r| format!("{r:.4}")).collect();
        report.check(
            "knn_recall_at_10",
            low >= RECALL_FLOOR,
            format!(
                "recall@10 {} against exact search over {RECALL_QUERIES} hot keys per city",
                all.join(", ")
            ),
        );
    }
}

/// Stamp facts: client count, call mix, and latency per call kind.
fn describe(report: &mut Report, hot: bool, passes: &[&Pass], windows: usize) {
    let calls: u64 = passes.iter().map(|p| p.calls()).sum();
    let reloads: u64 = passes.iter().map(|p| p.reloads_scheduled).sum();
    report.info("clients", clients(hot));
    let cpu = passes.first().and_then(|p| p.cpu);
    report.info("serving_cpu", cpu.map_or("unpinned".to_string(), |c| c.to_string()));
    report.info(
        "call_mix",
        if hot {
            format!(
                "1/{KNN_EVERY} knn top-{K} over {CORPUS} vectors (nprobe {NPROBE}), the rest \
                 embed_many of one candidate group ({} routes at its departure) drawn \
                 Zipf({ZIPF_S}) from {HOT_GROUPS} groups, {reloads} reloads",
                common::GROUP_CANDIDATES
            )
        } else {
            "1/2 embed, 1/2 eta, every key a distinct (path, 5-minute slot)".to_string()
        },
    );
    report.info(
        "latency_samples",
        format!("{calls} calls in {windows} one-second windows (p50/p99 taken per window)"),
    );
    let kinds = [
        (Call::Embed, "embed"),
        (Call::Eta, "eta"),
        (Call::Many, "embed_many"),
        (Call::Knn, "knn"),
    ];
    for (kind, name) in kinds {
        let mut h = Hist::new();
        for p in passes {
            h.merge(&p.hist(Some(kind), None));
        }
        if h.len() > 0 {
            let (p50, p99) = (h.quantile(0.5) / 1e3, h.quantile(0.99) / 1e3);
            report.info(
                &format!("latency_{name}"),
                format!("{} calls, p50 {p50:.1} us, p99 {p99:.1} us", h.len()),
            );
        }
    }
}

pub fn run(opts: &Opts) -> Report {
    let hot = opts.workload == Workload::ServeHot;
    let tr = Tracer::new(opts.trace);
    let run_id = tr.new_id();
    let run_start = Instant::now();
    let mut report = Report::default();
    let mut tally = Tally::default();
    // `serve_hot` reloads once in the middle of every measured second.
    let reloads = |seconds: u64| if hot { seconds as usize } else { 0 };
    let set_up = |seconds: u64, seed: u64| {
        tr.span("setup", run_id, |id| {
            let s = setup(&tr, id, opts, seed);
            let live = spawn_warm(&tr, id, &s, reloads(seconds));
            (s, live)
        })
    };

    if !opts.trace {
        // Each set-up builds a city of its own and a server for it. Cities
        // differ in path lengths and IVF list sizes, which move the cost of
        // a call, so the figures average over cities. The servers take
        // turns, one second each, so a slow spell of the shared host falls
        // on every city alike instead of on one.
        let rounds = (opts.seconds / SETUP_REPEATS as u64).max(1);
        let mut setup_s = Vec::new();
        let mut cities: Vec<(Setup, Live)> = (0..SETUP_REPEATS)
            .map(|i| {
                let ((s, live), secs) = set_up(rounds, city_seed(opts.seed, i));
                setup_s.push(secs);
                (s, live)
            })
            .collect();
        let mut passes: Vec<Vec<Pass>> = cities.iter().map(|_| Vec::new()).collect();
        for _ in 0..rounds {
            for ((s, live), out) in cities.iter_mut().zip(&mut passes) {
                out.push(measure(&tr, run_id, s, live, 1, opts));
            }
        }
        // Per city: the median over its windows of calls per second, p50
        // and p99. Each figure is the mean of these over the cities.
        let mut per_city = Vec::new();
        let mut recalls = Vec::new();
        let (mut eta_mae, mut eta_rows) = (Vec::new(), 0);
        for ((s, live), city) in cities.into_iter().zip(&passes) {
            live.server.shutdown();
            for pass in city {
                tally.add(&s, pass);
            }
            per_city.push(window_medians(&city.iter().flat_map(Pass::windows).collect::<Vec<_>>()));
            recalls.extend(s.index.as_ref().map(|ix| knn_recall(&s, ix)));
            eta_mae.push(s.eta.mae);
            eta_rows = s.eta.test_rows;
        }
        tally.report(&mut report);
        check_recall(&mut report, &recalls);
        let all: Vec<&Pass> = passes.iter().flatten().collect();
        describe(&mut report, hot, &all, all.len());
        report.info("eta_test_rows", eta_rows);
        let city_info: Vec<String> = per_city
            .iter()
            .map(|[ops, p50, p99]| format!("{ops:.0} ops/s, p50 {p50:.2} us, p99 {p99:.1} us"))
            .collect();
        report.info("per_city", city_info.join("; "));
        let [ops, p50, p99] =
            [0, 1, 2].map(|k| mean(&per_city.iter().map(|c| c[k]).collect::<Vec<_>>()));
        report.set("setup_s", median(&setup_s));
        report.set("ops_per_s", ops);
        report.set("p50_us", p50);
        report.set("p99_us", p99);
        report.set("eta_mae_s", mean(&eta_mae));
        return report;
    }

    // A traced run sets up once, measures untraced on that server, then
    // traced on a fresh one; the gap is the tracing overhead.
    let ((s, mut live), _) = set_up(opts.seconds, opts.seed);
    let off = Tracer::new(false);
    let (untraced, _) = tr
        .span("measure.untraced", run_id, |_| measure(&off, 0, &s, &mut live, opts.seconds, opts));
    live.server.shutdown();
    let mut live = spawn_warm(&tr, run_id, &s, reloads(opts.seconds));
    let (pass, _) =
        tr.span("measure", run_id, |id| measure(&tr, id, &s, &mut live, opts.seconds, opts));
    tr.span("serve.shutdown", run_id, |_| live.server.shutdown());
    let ((), _) = tr.span("checks", run_id, |_| {
        tally.add(&s, &pass);
        tally.report(&mut report);
        let recall = s.index.as_ref().map(|ix| knn_recall(&s, ix));
        check_recall(&mut report, recall.as_slice());
    });
    describe(&mut report, hot, &[&pass], pass.seconds as usize);
    report.info("eta_test_rows", s.eta.test_rows);

    let (pre, post) = (pass.pre, pass.post);
    let batches = post.batches - pre.batches;
    let batch_mean = (post.batched_embeds - pre.batched_embeds) as f64 / batches.max(1) as f64;
    let hits = post.cache.hits - pre.cache.hits;
    let lookups = hits + post.cache.misses - pre.cache.misses;

    let ((), _) = tr.span("replay", run_id, |_| replay(&mut report, &s, &pass, batch_mean, hot));

    report.set("datagen.write_s", s.data.write_s);
    report.set("datagen.records_per_s", s.data.records as f64 / s.data.write_s);
    report.set("datagen.open_s", s.data.open_s);
    report.set("graphembed.encoder_build_s", s.encoder_build_s);
    report.set("core.freeze_s", s.freeze_s);
    report.set("downstream.task.fit_s", s.eta.fit_s);
    report.set("serve.batches", batches as f64);
    report.set("serve.batch_mean", batch_mean);
    report.set("serve.max_batch_seen", post.max_batch_seen as f64);
    report.set("serve.cache.hit_rate", hits as f64 / lookups.max(1) as f64);
    report.set("serve.cache.evictions", (post.cache.evictions - pre.cache.evictions) as f64);
    report.set("serve.reloads", (post.reloads - pre.reloads) as f64);
    report.set("serve.reload_errors", (post.reload_errors - pre.reload_errors) as f64);
    if let Some(index) = &s.index {
        report.set("downstream.index.scan_fraction", index.mean_scan_fraction());
    }
    let untraced_ops = window_medians(&untraced.windows())[0];
    report.set("trace.overhead_frac", untraced_ops / window_medians(&pass.windows())[0] - 1.0);
    for o in pass.outs {
        tr.extend(o.spans);
    }
    let workload = if hot { "serve_hot" } else { "serve_miss" };
    common::finish_trace(&tr, run_id, run_start, opts, workload, &mut report);
    report
}

/// Replay each layer a call passes through, on this workload's keys, and
/// derive the serving overhead: client p50 minus the replayed layer time.
fn replay(report: &mut Report, s: &Setup, pass: &Pass, batch_mean: f64, hot: bool) {
    let rep = &s.direct[0];
    let mut rng = Rng::new(0xC0FFEE);
    let zipf_keys: Vec<(&Path, SimTime)> = if hot {
        (0..20_000 / common::GROUP_CANDIDATES)
            .flat_map(|_| Setup::group_keys(&s.groups[s.zipf.sample(&mut rng)]))
            .collect()
    } else {
        Vec::new()
    };
    let fresh: Vec<(&Path, SimTime)> =
        (0..40_000u64).map(|i| s.miss_key(3 * POOL_PATHS as u64 * SLOTS / 4 + i)).collect();
    let queries = if hot { &zipf_keys } else { &fresh };
    let batch = batch_mean.round().max(1.0) as usize;
    let embed_batch_us = common::replay_embed_batch(rep, queries, batch);

    let value = Arc::new(rep.embed(queries[0].0, queries[0].1));
    let (insert_ns, get_ns) = if hot {
        common::replay_cache(&s.hot_keys(), &zipf_keys, &value)
    } else {
        common::replay_cache(&fresh[..20_000], &fresh[20_000..], &value)
    };
    let rows: Vec<Vec<f64>> = queries.iter().take(1000).map(|&(p, t)| rep.embed(p, t)).collect();
    let predict_us = common::replay_eta_predict(&s.eta.head, &rows);

    let overhead_us = if let Some(index) = &s.index {
        let qs: Vec<Vec<f32>> = rows.iter().take(200).map(|r| to_f32(r)).collect();
        let knn_us = time_per_op_ns(9, 100, |i| {
            std::hint::black_box(index.knn(&qs[i % qs.len()], K));
        }) / 1e3;
        report.set("downstream.index.knn_us", knn_us);
        let group = common::GROUP_CANDIDATES as f64;
        pass.hist(Some(Call::Many), None).quantile(0.5) / 1e3 - group * get_ns / 1e3
    } else {
        let layers_us = embed_batch_us / batch as f64 + (get_ns + insert_ns) / 1e3;
        pass.hist(Some(Call::Embed), None).quantile(0.5) / 1e3 - layers_us
    };
    report.set("core.embed_batch_us", embed_batch_us);
    report.set("serve.cache.get_ns", get_ns);
    report.set("serve.cache.insert_ns", insert_ns);
    report.set("downstream.eta_predict_us", predict_us);
    report.set("serve.overhead_us", overhead_us);
    report.info("replayed_batch", batch);
}
