//! The `train` workload: datagen writes a `.wsccl-ds` file that is
//! memory-mapped back, then one learned-curriculum WSCCL run
//! (`train_wsccl_with_strategy_observed`: node2vec encoder, experts,
//! curriculum stages, final epochs, freeze), then an ETA head fit on the
//! frozen embeddings and scored on a held-out split. The nn tape, kernels,
//! engine and curriculum do the work; the serving layers sit idle.

use std::sync::Arc;
use std::time::Instant;

use wsccl_core::curriculum::{meta_sets, train_wsccl_with_strategy_observed, CurriculumStrategy};
use wsccl_core::encoder::TemporalPathEncoder;
use wsccl_core::{TrainedRepresenter, WscModel, WscclConfig};
use wsccl_datagen::TemporalPathSample;
use wsccl_traffic::TciLabeler;
use wsccl_train::{EpochRecord, StepRecord, TrainObserver};

use crate::common::{self, Data, SETUP_REPEATS};
use crate::trace::{Span, Tracer};
use crate::util::{median, percentile};
use crate::{Opts, Report, NN_OPS};

/// Unlabeled paths generated per second of `--seconds`: at the library's
/// default configuration on a 2-core host this makes the curriculum run
/// last about as long as the budget, with training (not node2vec) filling
/// most of it.
const PATHS_PER_SECOND: usize = 1600;
/// Optimizer steps per latency window: p50/p99 of step time are taken per
/// window of this many consecutive steps (ten beyond the p99) and the
/// reported figures are medians over the windows.
const STEP_WINDOW: usize = 1000;
/// Paths in the tape-profiled training segment of a traced run.
const PROFILED_PATHS: usize = 2000;

struct Setup {
    data: Data,
    labeler: TciLabeler,
    samples: Vec<TemporalPathSample>,
    encoder: Arc<TemporalPathEncoder>,
    encoder_build_s: f64,
}

fn setup(tr: &Tracer, parent: u64, opts: &Opts) -> Setup {
    let cfg = common::dataset_config(opts.seed, PATHS_PER_SECOND * opts.seconds as usize, 0);
    let file = common::out_path(&format!("train-seed{}.wsccl-ds", opts.seed));
    let data = common::dataset(tr, parent, &cfg, &file);
    let (labeler, _) = tr.span("traffic.tci_labeler", parent, |_| {
        TciLabeler::new(data.source.net(), data.source.congestion())
    });
    let pool = data.source.unlabeled_pool();
    let samples = (0..pool.len()).map(|i| pool.get(i)).collect();
    let (encoder, encoder_build_s) = common::encoder(tr, parent, &data, opts.seed);
    Setup { data, labeler, samples, encoder, encoder_build_s }
}

/// Timestamps and step records the curriculum run reports through its
/// observer; step spans go to the stage or final span open at the time.
struct Observer<'a> {
    tr: &'a Tracer,
    stages_id: u64,
    final_id: u64,
    phases: Vec<(String, Instant)>,
    last_epoch: Option<Instant>,
    step_ms: Vec<f64>,
    nan_steps: u64,
    epoch_losses: Vec<f64>,
    spans: Vec<Span>,
}

impl TrainObserver for Observer<'_> {
    fn on_step(&mut self, r: &StepRecord) {
        let end = Instant::now();
        self.step_ms.push(r.elapsed.as_secs_f64() * 1e3);
        if !r.loss.is_finite() {
            self.nan_steps += 1;
        }
        if self.tr.on() {
            let parent = if self.phases.last().is_some_and(|p| p.0 == "final") {
                self.final_id
            } else {
                self.stages_id
            };
            let start = end.checked_sub(r.elapsed).unwrap_or(end);
            let id = self.tr.new_id();
            self.spans.push(self.tr.make(id, parent, 0, "train.step", start, end));
        }
    }

    fn on_epoch(&mut self, r: &EpochRecord) {
        self.last_epoch = Some(Instant::now());
        self.epoch_losses.push(r.mean_loss);
    }

    fn on_phase(&mut self, name: &str) {
        self.phases.push((name.to_string(), Instant::now()));
    }
}

struct Pass {
    rep: TrainedRepresenter,
    wall_s: f64,
    /// Call start to the first curriculum stage: the encoder the call
    /// builds, the experts, and difficulty scoring.
    pre_stage_s: f64,
    stages_s: f64,
    final_s: f64,
    freeze_s: f64,
    step_ms: Vec<f64>,
    nan_steps: u64,
    epoch_losses: Vec<f64>,
    main_paths: u64,
}

fn curriculum_pass(tr: &Tracer, parent: u64, s: &Setup, cfg: &WscclConfig) -> Pass {
    let call_id = tr.new_id();
    let ids = [tr.new_id(), tr.new_id(), tr.new_id(), tr.new_id()];
    let mut obs = Observer {
        tr,
        stages_id: ids[1],
        final_id: ids[2],
        phases: Vec::new(),
        last_epoch: None,
        step_ms: Vec::new(),
        nan_steps: 0,
        epoch_losses: Vec::new(),
        spans: Vec::new(),
    };
    let t0 = Instant::now();
    let rep = train_wsccl_with_strategy_observed(
        s.data.source.net(),
        &s.samples,
        &s.labeler,
        cfg,
        CurriculumStrategy::Learned,
        "WSCCL",
        &mut obs,
    );
    let t1 = Instant::now();
    let first = obs.phases.first().map_or(t1, |p| p.1);
    let fin = obs.phases.iter().find(|p| p.0 == "final").map_or(t1, |p| p.1);
    let last_epoch = obs.last_epoch.unwrap_or(t1).max(fin);
    tr.record(call_id, parent, "core.curriculum", t0, t1);
    let bounds = [(t0, first), (first, fin), (fin, last_epoch), (last_epoch, t1)];
    let names = [
        "core.curriculum.experts",
        "core.curriculum.stages",
        "core.curriculum.final",
        "core.freeze",
    ];
    for ((id, (a, b)), n) in ids.iter().zip(bounds).zip(names) {
        tr.record(*id, call_id, n, a, b);
    }
    tr.extend(std::mem::take(&mut obs.spans));
    let secs = |(a, b): (Instant, Instant)| (b - a).as_secs_f64();
    Pass {
        rep,
        wall_s: (t1 - t0).as_secs_f64(),
        pre_stage_s: secs(bounds[0]),
        stages_s: secs(bounds[1]),
        final_s: secs(bounds[2]),
        freeze_s: secs(bounds[3]),
        main_paths: (obs.step_ms.len() * cfg.batch_size) as u64,
        step_ms: obs.step_ms,
        nan_steps: obs.nan_steps,
        epoch_losses: obs.epoch_losses,
    }
}

/// Median over consecutive `STEP_WINDOW`-step windows of the `q`-quantile
/// step time (a short tail window is folded into the one before it).
fn windowed(step_ms: &[f64], q: f64) -> f64 {
    let n = (step_ms.len() / STEP_WINDOW).max(1);
    let per: Vec<f64> = (0..n)
        .map(|w| {
            let end = if w + 1 == n { step_ms.len() } else { (w + 1) * STEP_WINDOW };
            let mut v = step_ms[w * STEP_WINDOW..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect();
    median(&per)
}

/// Paths the curriculum experts see: each trains `expert_epochs` epochs of
/// `len / batch_size` full batches on its meta-set.
fn expert_paths(samples: &[TemporalPathSample], cfg: &WscclConfig) -> u64 {
    let n = cfg.num_meta_sets.clamp(1, samples.len());
    meta_sets(samples, n)
        .iter()
        .map(|set| {
            ((set.len() / cfg.batch_size).max(1) * cfg.batch_size * cfg.expert_epochs) as u64
        })
        .sum()
}

pub fn run(opts: &Opts) -> Report {
    let tr = Tracer::new(opts.trace);
    let run_id = tr.new_id();
    let run_start = Instant::now();
    let mut report = Report::default();
    let cfg = common::wsccl_config(opts.seed);

    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (s, secs) = tr.span("setup", run_id, |id| setup(&tr, id, opts));
        setup_s.push(secs);
        build_s.push(s.encoder_build_s);
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    // The curriculum call builds its own encoder from the same network,
    // config and seed; the set-up's builds time that share of the call.
    let encoder_build_s = median(&build_s);
    let experts = expert_paths(&s.samples, &cfg);

    let untraced = opts.trace.then(|| {
        let off = Tracer::new(false);
        tr.span("measure.untraced", run_id, |_| curriculum_pass(&off, 0, &s, &cfg)).0
    });
    let (pass, _) = tr.span("measure", run_id, |id| curriculum_pass(&tr, id, &s, &cfg));
    let train_s = (pass.wall_s - encoder_build_s).max(1e-9);
    let ops_per_s = (experts + pass.main_paths) as f64 / train_s;

    let (eta, _) =
        tr.span("checks", run_id, |id| common::eta_eval(&tr, id, &pass.rep, &s.data.source));
    let mut steps = pass.step_ms.clone();
    steps.sort_by(f64::total_cmp);

    report.attempted += steps.len() as u64;
    report.failed += pass.nan_steps;
    let final_loss = pass.epoch_losses.last().copied().unwrap_or(f64::NAN);
    report.check(
        "training_loss_finite",
        pass.epoch_losses.iter().all(|l| l.is_finite()),
        format!("{} epochs, final mean loss {final_loss}", pass.epoch_losses.len()),
    );
    report.check(
        "eta_beats_mean_predictor",
        eta.mae < eta.mean_mae,
        format!(
            "MAE {:.3} s vs mean predictor {:.3} s on {} rows",
            eta.mae, eta.mean_mae, eta.test_rows
        ),
    );

    report.info("unlabeled_paths", s.samples.len());
    report.info("paths_trained", experts + pass.main_paths);
    report.info("main_steps", steps.len());
    report.info(
        "latency_samples",
        format!("{} optimizer steps in windows of {STEP_WINDOW} (medians of per-window p50/p99 step time)", steps.len()),
    );
    report.info("encoder_build_s", encoder_build_s);
    report.info("eta_test_rows", eta.test_rows);

    if !opts.trace {
        report.set("setup_s", median(&setup_s));
        report.set("ops_per_s", ops_per_s);
        report.set("p50_us", windowed(&pass.step_ms, 0.50) * 1e3);
        report.set("p99_us", windowed(&pass.step_ms, 0.99) * 1e3);
        report.set("eta_mae_s", eta.mae);
        return report;
    }

    let untraced = untraced.expect("traced runs measure an untraced pass first");
    let untraced_ops =
        (experts + untraced.main_paths) as f64 / (untraced.wall_s - encoder_build_s).max(1e-9);
    drop(untraced);

    // Tape profile of a short training segment on the set-up's encoder.
    let (profile, _) = tr.span("nn.profiled_segment", run_id, |_| {
        let mut model = WscModel::new(Arc::clone(&s.encoder), cfg.clone(), opts.seed);
        model.enable_profiling();
        let n = PROFILED_PATHS.min(s.samples.len());
        model.train(&s.samples[..n], &s.labeler, 1);
        model.profile()
    });

    let q = |p: f64| percentile(&steps, p);
    report.set("datagen.write_s", s.data.write_s);
    report.set("datagen.records_per_s", s.data.records as f64 / s.data.write_s);
    report.set("datagen.open_s", s.data.open_s);
    report.set("graphembed.encoder_build_s", encoder_build_s);
    report.set("core.curriculum.experts_s", (pass.pre_stage_s - encoder_build_s).max(0.0));
    report.set("core.curriculum.stages_s", pass.stages_s);
    report.set("core.curriculum.final_s", pass.final_s);
    report.set("train.step_ms.p50", q(0.50));
    report.set("train.step_ms.p90", q(0.90));
    report.set("train.skipped_step_frac", pass.nan_steps as f64 / steps.len().max(1) as f64);
    report.set("nn.forward_s", profile.total_forward_ns() as f64 / 1e9);
    report.set("nn.backward_s", profile.total_backward_ns() as f64 / 1e9);
    for op in NN_OPS {
        let ms = profile.get(op).map_or(0.0, |o| (o.forward_ns + o.backward_ns) as f64 / 1e6);
        report.set(&format!("nn.op.{op}_ms"), ms);
    }
    report.set("core.freeze_s", pass.freeze_s);
    report.set("downstream.task.fit_s", eta.fit_s);
    report.set("trace.overhead_frac", untraced_ops / ops_per_s - 1.0);
    report.info("profiled_steps", PROFILED_PATHS.min(s.samples.len()) / cfg.batch_size);

    common::finish_trace(&tr, run_id, run_start, opts, "train", &mut report);
    report
}
