//! Set-up steps and layer replays shared by the workloads. Every call into
//! a crate is wrapped in a span named after the layer it enters.

use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wsccl_core::encoder::{BatchScratch, EncoderConfig, TemporalPathEncoder};
use wsccl_core::{TrainedRepresenter, WscclConfig};
use wsccl_datagen::{write_dataset, DatasetConfig, DatasetSource, StreamConfig};
use wsccl_downstream::{EtaRegression, GbRegressor, Task};
use wsccl_roadnet::{CityProfile, Path};
use wsccl_serve::EmbeddingCache;
use wsccl_traffic::SimTime;

use crate::trace::{self, Tracer};
use crate::util::{median, time_per_op_ns};
use crate::{Opts, Report, LAYERS};

/// Where the benchmark writes its dataset files and span dumps, relative to
/// the checkout root it runs from.
pub const OUT_DIR: &str = "wsbench/out";

/// Set-up runs this many times per untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Cache capacity and batch cap of every served configuration
/// (`ServeConfig::default()`'s values, spelled out so the workloads' sizing
/// against them is visible here).
pub const CACHE_CAPACITY: usize = 4096;
pub const MAX_BATCH: usize = 16;

/// Travel-time examples in every dataset: the ETA head fits on the first
/// `ETA_FIT_ROWS` and is scored on the rest, so the MAE averages over
/// enough rows to be steady from seed to seed.
pub const TTE_EXAMPLES: usize = 2000;
pub const ETA_FIT_ROWS: usize = 500;

pub fn out_path(name: &str) -> PathBuf {
    FsPath::new(OUT_DIR).join(name)
}

/// The library's default WSCCL configuration, seeded by the workload seed.
pub fn wsccl_config(seed: u64) -> WscclConfig {
    WscclConfig { seed, ..WscclConfig::default() }
}

/// Candidate routes per recommendation group, as in the route-ranking
/// datasets the bench crate's scales generate.
pub const GROUP_CANDIDATES: usize = 6;

pub fn dataset_config(seed: u64, unlabeled: usize, groups: usize) -> DatasetConfig {
    DatasetConfig {
        profile: CityProfile::Aalborg,
        seed,
        num_unlabeled: unlabeled,
        num_tte: TTE_EXAMPLES,
        num_groups: groups,
        candidates_per_group: GROUP_CANDIDATES,
        use_map_matching: false,
    }
}

/// A generated `.wsccl-ds` file, memory-mapped back; the file is removed
/// when this is dropped.
pub struct Data {
    pub source: DatasetSource,
    pub write_s: f64,
    pub open_s: f64,
    /// Records written: unlabeled paths plus travel-time examples.
    pub records: usize,
    file: PathBuf,
}

impl Drop for Data {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.file);
    }
}

pub fn dataset(tr: &Tracer, parent: u64, cfg: &DatasetConfig, file: &FsPath) -> Data {
    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    let ((), write_s) = tr.span("datagen.write", parent, |_| {
        write_dataset(cfg, &StreamConfig::serial(), file).expect("write the dataset");
    });
    let (source, open_s) =
        tr.span("datagen.open", parent, |_| DatasetSource::open(file).expect("open the dataset"));
    let records = source.num_unlabeled() + source.num_tte() + source.num_groups();
    Data { source, write_s, open_s, records, file: file.to_path_buf() }
}

pub fn encoder(
    tr: &Tracer,
    parent: u64,
    data: &Data,
    seed: u64,
) -> (Arc<TemporalPathEncoder>, f64) {
    let (enc, s) = tr.span("graphembed.encoder_build", parent, |_| {
        TemporalPathEncoder::new(data.source.net(), EncoderConfig::default(), seed)
    });
    (Arc::new(enc), s)
}

/// The ETA head fit on a model's frozen embeddings and scored on the
/// held-out travel-time examples.
pub struct EtaEval {
    pub head: GbRegressor,
    pub mae: f64,
    /// MAE of predicting the training mean for every test row.
    pub mean_mae: f64,
    pub fit_s: f64,
    pub test_rows: usize,
}

pub fn eta_eval(
    tr: &Tracer,
    parent: u64,
    rep: &TrainedRepresenter,
    source: &DatasetSource,
) -> EtaEval {
    let tte: Vec<_> = (0..source.num_tte()).map(|i| source.tte(i)).collect();
    let (x, _) = tr.span("core.embed", parent, |_| {
        tte.iter().map(|t| rep.embed(&t.path, t.departure)).collect::<Vec<_>>()
    });
    let y: Vec<f64> = tte.iter().map(|t| t.travel_time).collect();
    let split = ETA_FIT_ROWS.min(tte.len() / 2);
    let task = EtaRegression::default();
    let (head, fit_s) =
        tr.span("downstream.task.fit", parent, |_| task.fit(&x[..split], &y[..split]));
    let (mae, _) = tr.span("downstream.task.score", parent, |_| {
        let pred: Vec<f64> = x[split..].iter().map(|r| task.predict(&head, r)).collect();
        task.score(&y[split..], &pred, &[]).mae
    });
    let mean = y[..split].iter().sum::<f64>() / split as f64;
    let test = &y[split..];
    let mean_mae = test.iter().map(|t| (t - mean).abs()).sum::<f64>() / test.len() as f64;
    EtaEval { head, mae, mean_mae, fit_s, test_rows: test.len() }
}

/// Median microseconds of one `embed_batch_with` call over consecutive
/// `batch`-sized slices of `queries`.
pub fn replay_embed_batch(
    rep: &TrainedRepresenter,
    queries: &[(&Path, SimTime)],
    batch: usize,
) -> f64 {
    let batch = batch.clamp(1, queries.len());
    let slices = queries.len() / batch;
    let mut scratch = BatchScratch::default();
    let per_chunk = (4096 / batch).max(16);
    time_per_op_ns(9, per_chunk, |i| {
        let b = i % slices;
        std::hint::black_box(
            rep.embed_batch_with(&queries[b * batch..(b + 1) * batch], &mut scratch),
        );
    }) / 1e3
}

/// Nanoseconds per `EmbeddingCache::insert` and per `get`, replayed on a
/// cache sized like the served one. `inserts` are written in order (evicting
/// once the cache is full); `gets` are then looked up, so they hit or miss
/// exactly as the workload's keys would.
pub fn replay_cache(
    inserts: &[(&Path, SimTime)],
    gets: &[(&Path, SimTime)],
    value: &Arc<Vec<f64>>,
) -> (f64, f64) {
    let mut insert_ns = Vec::new();
    let mut get_ns = Vec::new();
    for _ in 0..5 {
        let cache = EmbeddingCache::new(CACHE_CAPACITY, 8);
        let t = std::time::Instant::now();
        for &(p, d) in inserts {
            cache.insert(EmbeddingCache::key(p, d), p, Arc::clone(value), cache.epoch());
        }
        insert_ns.push(t.elapsed().as_nanos() as f64 / inserts.len() as f64);
        let t = std::time::Instant::now();
        for &(p, d) in gets {
            std::hint::black_box(cache.get(&EmbeddingCache::key(p, d), p));
        }
        get_ns.push(t.elapsed().as_nanos() as f64 / gets.len() as f64);
    }
    (median(&insert_ns), median(&get_ns))
}

/// Median microseconds of one `GbRegressor::predict` over `rows`.
pub fn replay_eta_predict(head: &GbRegressor, rows: &[Vec<f64>]) -> f64 {
    time_per_op_ns(9, 1000, |i| {
        std::hint::black_box(head.predict(&rows[i % rows.len()]));
    }) / 1e3
}

/// Close the root span, check that the spans form one tree, report self
/// times, and write the spans out. The self-time sweep shares each instant
/// among the spans open at it and clamps children into their parents, so
/// the self times of a tree under `run` sum to the wall time by
/// construction; the check is on the tree itself.
pub fn finish_trace(
    tr: &Tracer,
    run_id: u64,
    start: Instant,
    opts: &Opts,
    workload: &str,
    report: &mut Report,
) {
    let end = Instant::now();
    tr.record(run_id, 0, "run", start, end);
    let spans = tr.take();
    let wall = (end - start).as_secs_f64();
    let times = trace::self_times(&spans);
    let sum: f64 = times.iter().map(|(_, s)| s).sum();
    for (name, secs) in &times {
        if LAYERS.contains(name) {
            report.set(&format!("self.{name}_s"), *secs);
        } else {
            report.check("span_names_listed", false, format!("span {name} is not in LAYERS"));
        }
    }
    report.set("trace.wall_s", wall);
    report.set("trace.self_sum_s", sum);
    let faults = trace::nesting_faults(&spans);
    report.check(
        "spans_nested",
        faults.is_empty(),
        format!(
            "{} of {} spans misplaced; first: {}",
            faults.len(),
            spans.len(),
            faults.first().map_or("none", |f| f.as_str())
        ),
    );
    let file = out_path(&format!("trace-{workload}-seed{}.tsv", opts.seed));
    match trace::write_spans(&file, &spans) {
        Ok(()) => report.info("trace_file", file.display()),
        Err(e) => report.check("trace_written", false, e.to_string()),
    }
    report.info("spans", spans.len());
}
