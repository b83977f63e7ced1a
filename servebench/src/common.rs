//! What the workloads share: seeded input generation, model set-up with a
//! persist round-trip, the full-recompute oracle, the decomposed layer
//! replay, per-backend rows and small statistics helpers.

use std::path::PathBuf;
use std::time::Instant;

use varade::{EncoderCache, StreamingVarade, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_obs::HistogramSnapshot;
use varade_robot::dataset::{DatasetBuilder, DatasetConfig};
use varade_tensor::Layer;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries, StreamingWindow};

use crate::trace::{name, Tracer};
use crate::Metrics;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// SplitMix64: the workload seed's only consumer, so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)` pair.
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: u64 = 5;

/// Which detector a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper-scale Table-2 model: 86 channels, window 64, fed raw rows
    /// with the training normalizer attached.
    Paper,
    /// The load harness's model: one channel, window 8, fed normalized rows.
    Tiny,
}

/// Channel of the robot schema the one-channel model serves.
const TINY_CHANNEL: usize = 0;

impl Shape {
    fn config(self) -> VaradeConfig {
        match self {
            // Table 2 at laptop scale; seed stays at the default constant.
            Shape::Paper => VaradeConfig {
                window: 64,
                base_feature_maps: 16,
                epochs: 3,
                ..VaradeConfig::default()
            },
            Shape::Tiny => VaradeConfig {
                window: 8,
                base_feature_maps: 4,
                epochs: 1,
                batch_size: 8,
                learning_rate: 2e-3,
                max_train_windows: 64,
                ..VaradeConfig::default()
            },
        }
    }
}

/// Removes the persisted model file when dropped.
pub struct Artifact(PathBuf);

impl Artifact {
    /// Loads a fresh, bit-identical copy of the persisted detector on the
    /// scalar backend, the bit-exact reference every score is checked on.
    pub fn load(&self) -> Result<VaradeDetector> {
        let mut detector = VaradeDetector::load(&self.0)?;
        detector.set_backend(varade::BackendKind::Scalar);
        Ok(detector)
    }
}

impl Drop for Artifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Directory for the benchmark's own files (model artifacts, traces): next
/// to its executable, inside the build directory of the checkout.
pub fn work_dir() -> Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("servebench-run");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A fitted, persisted and reloaded detector with the input it serves: the
/// robot collision test split, replayed cyclically.
pub struct Served {
    pub detector: VaradeDetector,
    pub artifact: Artifact,
    pub normalizer: Option<MinMaxNormalizer>,
    /// Input rows as the program receives them, `n_rows × n_channels`.
    rows: Vec<f32>,
    pub labels: Vec<bool>,
    pub n_channels: usize,
    pub window: usize,
}

impl Served {
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    pub fn row(&self, j: usize) -> &[f32] {
        &self.rows[j * self.n_channels..(j + 1) * self.n_channels]
    }

    /// Row `k` of a replay that starts at `offset` and wraps around.
    pub fn cyclic(&self, offset: usize, k: u64) -> usize {
        ((offset as u64 + k) % self.n_rows() as u64) as usize
    }
}

/// Builds the dataset, fits the detector, saves it and loads it back — the
/// model half of a set-up. Dataset and model seeds are fixed constants, so
/// accuracy stays comparable across commits. Spans nest under whatever span
/// the caller has open.
pub fn prepare(shape: Shape, rep: u64, tracer: &mut Tracer) -> Result<Served> {
    let dataset = tracer.span(name::DATASET, rep, || {
        DatasetBuilder::new(DatasetConfig::scaled()).build()
    })?;
    let (train, normalizer, rows, n_channels) = match shape {
        Shape::Paper => {
            // Raw sensor rows: undo the training normalization the dataset
            // applied, so the served stream normalizes them itself.
            let norm = dataset.normalizer.clone();
            let c = dataset.test.n_channels();
            let mut rows = Vec::with_capacity(dataset.test.len() * c);
            for t in 0..dataset.test.len() {
                let row = dataset.test.row(t);
                rows.extend((0..c).map(|ci| norm.inverse_value(ci, row[ci])));
            }
            (dataset.train, Some(norm), rows, c)
        }
        Shape::Tiny => {
            let channel = dataset.train.channel_names()[TINY_CHANNEL].clone();
            let mut train = MultivariateSeries::new(vec![channel], dataset.train.sample_rate_hz())?;
            for t in 0..dataset.train.len() {
                train.push_row(&[dataset.train.row(t)[TINY_CHANNEL]])?;
            }
            (train, None, dataset.test.channel(TINY_CHANNEL), 1)
        }
    };
    let mut fitted = VaradeDetector::new(shape.config());
    tracer.span(name::FIT, rep, || fitted.fit(&train))?;
    let path = work_dir()?.join(format!("model-{}-{rep}.varade", std::process::id()));
    tracer.span(name::SAVE, rep, || fitted.save(&path))?;
    let artifact = Artifact(path);
    let detector = tracer.span(name::LOAD, rep, || artifact.load())?;
    let window = detector.config().window;
    Ok(Served {
        detector,
        artifact,
        normalizer,
        rows,
        labels: dataset.labels,
        n_channels,
        window,
    })
}

/// The decomposition of one push into its layer calls, each spanned:
/// normalize the row, score it against the live context on a detector-planned
/// incremental cache (and, for the oracle, by full recompute), then slide the
/// window.
pub struct Shadow<'a> {
    detector: &'a VaradeDetector,
    normalizer: Option<&'a MinMaxNormalizer>,
    window: StreamingWindow,
    cache: EncoderCache,
    context: Option<Vec<f32>>,
}

/// Scores one [`Shadow::step`] produced (`None` while the window fills).
pub struct Step {
    pub incremental: Option<f32>,
    pub full: Option<f32>,
}

impl<'a> Shadow<'a> {
    pub fn new(served: &'a Served, detector: &'a VaradeDetector) -> Result<Self> {
        Ok(Self {
            detector,
            normalizer: served.normalizer.as_ref(),
            window: StreamingWindow::new(served.n_channels, served.window)?,
            cache: detector.incremental_cache()?,
            context: None,
        })
    }

    pub fn step(
        &mut self,
        raw: &[f32],
        request: u64,
        full: bool,
        tracer: &mut Tracer,
    ) -> Result<Step> {
        let mut row = raw.to_vec();
        if let Some(norm) = self.normalizer {
            tracer.span(name::NORMALIZE, request, || norm.transform_row(&mut row))?;
        }
        let mut step = Step {
            incremental: None,
            full: None,
        };
        if let Some(context) = self.context.take() {
            let detector = self.detector;
            if full {
                step.full = Some(tracer.span(name::FULL, request, || {
                    detector.score_window(&context, &row)
                })?);
            }
            let cache = &mut self.cache;
            step.incremental = Some(tracer.span(name::INCREMENTAL, request, || {
                detector.score_window_incremental(cache, &context, &row)
            })?);
        }
        let window = &mut self.window;
        self.context = tracer.span(name::WINDOW, request, || window.push(&row))?;
        Ok(step)
    }
}

/// Full-recompute oracle: `scores[j]` is the scalar `score_window` score of
/// row `j` against the `window` rows before it (wrapping around), which is
/// what every scorer replaying the split cyclically must emit for row `j`.
/// The same replay also runs a [`StreamingVarade`] and the incremental
/// shadow; each score of theirs that differs from the oracle in any bit is
/// counted in `mismatches`.
pub struct Oracle {
    pub scores: Vec<f32>,
    pub mismatches: u64,
}

pub fn oracle(served: &Served, tracer: &mut Tracer) -> Result<Oracle> {
    let (n, w) = (served.n_rows(), served.window);
    let mut stream = StreamingVarade::new(
        served.artifact.load()?,
        served.n_channels,
        served.normalizer.clone(),
    )?;
    let mut shadow = Shadow::new(served, &served.detector)?;
    let mut scores = vec![f32::NAN; n];
    let mut mismatches = 0;
    for k in 0..n + w {
        let j = (k + n - w) % n;
        let raw = served.row(j);
        let request = tracer.begin(name::REQUEST, j as u64);
        let pushed = tracer.span(name::PUSH, j as u64, || stream.push(raw))?;
        let step = shadow.step(raw, j as u64, true, tracer)?;
        tracer.end(request);
        if let (Some(full), Some(incremental)) = (step.full, step.incremental) {
            let agree = pushed.map(f32::to_bits) == Some(full.to_bits())
                && incremental.to_bits() == full.to_bits();
            if !agree || !full.is_finite() {
                mismatches += 1;
            }
            scores[j] = full;
        }
    }
    Ok(Oracle { scores, mismatches })
}

/// The scores a phase emitted, tallied by the row of the split they
/// scored. Every score of a row must carry the same bits (the oracle is
/// deterministic per row), so a row keeps its first score and a count, and
/// memory stays constant however long the phase runs.
pub struct Tally {
    first: Vec<u32>,
    count: Vec<u64>,
    /// Scores that differed from the first score of their row.
    inconsistent: u64,
}

impl Tally {
    pub fn new(served: &Served) -> Self {
        Self {
            first: vec![0; served.n_rows()],
            count: vec![0; served.n_rows()],
            inconsistent: 0,
        }
    }

    pub fn record(&mut self, row: usize, score: f32) {
        let bits = score.to_bits();
        if self.count[row] == 0 {
            self.first[row] = bits;
        } else if self.first[row] != bits {
            self.inconsistent += 1;
        }
        self.count[row] += 1;
    }

    pub fn total(&self) -> u64 {
        self.count.iter().sum()
    }

    pub fn merge(&mut self, other: &Tally) {
        for j in 0..other.count.len() {
            if other.count[j] > 0 {
                let n = other.count[j];
                self.record(j, f32::from_bits(other.first[j]));
                self.count[j] += n - 1;
            }
        }
        self.inconsistent += other.inconsistent;
    }

    /// Scores that are non-finite or differ in any bit from the oracle.
    pub fn mismatches(&self, oracle: &Oracle) -> u64 {
        let wrong: u64 = (0..self.count.len())
            .filter(|&j| {
                let first = f32::from_bits(self.first[j]);
                self.count[j] > 0
                    && (!first.is_finite() || self.first[j] != oracle.scores[j].to_bits())
            })
            .map(|j| self.count[j])
            .sum();
        wrong + self.inconsistent
    }

    /// AUC-ROC of the tallied scores against the labels of their rows:
    /// the chance that a score of an anomalous row exceeds one of a normal
    /// row, ties counting half.
    pub fn auc(&self, labels: &[bool]) -> f64 {
        let mut rows: Vec<usize> = (0..self.count.len())
            .filter(|&j| self.count[j] > 0)
            .collect();
        rows.sort_by(|&a, &b| {
            f32::from_bits(self.first[a]).total_cmp(&f32::from_bits(self.first[b]))
        });
        let (mut negatives_below, mut wins, mut positives, mut negatives) = (0.0, 0.0, 0.0, 0.0);
        let mut start = 0;
        while start < rows.len() {
            let bits = self.first[rows[start]];
            let end = start
                + rows[start..]
                    .iter()
                    .take_while(|&&j| self.first[j] == bits)
                    .count();
            let (mut pos, mut neg) = (0.0, 0.0);
            for &j in &rows[start..end] {
                if labels[j] {
                    pos += self.count[j] as f64;
                } else {
                    neg += self.count[j] as f64;
                }
            }
            wins += pos * (negatives_below + 0.5 * neg);
            negatives_below += neg;
            positives += pos;
            negatives += neg;
            start = end;
        }
        wins / (positives * negatives)
    }
}

/// Log-linear latency histogram in nanoseconds: 2^7 sub-buckets per octave,
/// so a quantile read back is within 0.8% of the recorded value, in
/// constant memory.
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: f64,
}

const SUB_BITS: u32 = 7;

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            buckets: vec![0; (64 << SUB_BITS) as usize],
            count: 0,
            sum_ns: 0.0,
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS;
        (((octave + 1) << SUB_BITS) | ((ns >> octave) as u32 & ((1 << SUB_BITS) - 1))) as usize
    }

    /// Smallest value of bucket `b` and the bucket's width.
    fn bounds(b: usize) -> (f64, f64) {
        let (octave, sub) = ((b >> SUB_BITS) as u32, b as u64 & ((1 << SUB_BITS) - 1));
        if octave == 0 {
            return (sub as f64, 1.0);
        }
        let shift = octave - 1;
        (
            (((1 << SUB_BITS) | sub) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn mean_ns(&self) -> f64 {
        self.sum_ns / self.count.max(1) as f64
    }

    /// The `q`-quantile (0..=1), interpolated inside its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = Self::bounds(b);
                return lo + width * (rank - seen as f64) / n as f64;
            }
            seen += n;
        }
        0.0
    }
}

/// Span and metric names of one backend's rows.
struct BackendSpans {
    kind: varade::BackendKind,
    incremental_span: &'static str,
    full_span: &'static str,
    incremental_metric: &'static str,
    full_metric: &'static str,
}

const BACKEND_SPANS: [BackendSpans; 3] = [
    BackendSpans {
        kind: varade::BackendKind::Scalar,
        incremental_span: "tensor.scalar.score_window_incremental",
        full_span: "tensor.scalar.score_window",
        incremental_metric: "tensor.forward_incremental_us.scalar",
        full_metric: "tensor.forward_full_us.scalar",
    },
    BackendSpans {
        kind: varade::BackendKind::Vector,
        incremental_span: "tensor.vector.score_window_incremental",
        full_span: "tensor.vector.score_window",
        incremental_metric: "tensor.forward_incremental_us.vector",
        full_metric: "tensor.forward_full_us.vector",
    },
    BackendSpans {
        kind: varade::BackendKind::Quant,
        incremental_span: "tensor.quant.score_window_incremental",
        full_span: "tensor.quant.score_window",
        incremental_metric: "tensor.forward_incremental_us.quant",
        full_metric: "tensor.forward_full_us.quant",
    },
];

/// Per-backend rows: the incremental and full scoring calls timed after
/// `set_backend` on freshly loaded copies, plus the model's computed
/// counts (FLOPs per scored window, f32 and int8 weight bytes).
pub fn backend_rows(served: &Served, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<()> {
    const CALLS: usize = 256;
    let mut window = StreamingWindow::new(served.n_channels, served.window)?;
    let mut pairs = Vec::with_capacity(CALLS + 1);
    let mut context = None;
    for j in 0.. {
        let mut row = served.row(j % served.n_rows()).to_vec();
        if let Some(norm) = &served.normalizer {
            norm.transform_row(&mut row)?;
        }
        if let Some(ctx) = context.take() {
            pairs.push((ctx, row.clone()));
            if pairs.len() == CALLS + 1 {
                break;
            }
        }
        context = window.push(&row)?;
    }
    for b in &BACKEND_SPANS {
        let mut detector = served.artifact.load()?;
        detector.set_backend(b.kind);
        let mut cache = detector.incremental_cache()?;
        // The first incremental call replays the whole context to prime the
        // cache; it stays outside the timed calls.
        let (ctx, row) = &pairs[0];
        detector.score_window_incremental(&mut cache, ctx, row)?;
        for (i, (ctx, row)) in pairs.iter().enumerate().skip(1) {
            let request = i as u64;
            tracer.span(b.incremental_span, request, || {
                detector.score_window_incremental(&mut cache, ctx, row)
            })?;
            tracer.span(b.full_span, request, || detector.score_window(ctx, row))?;
        }
        if b.kind == varade::BackendKind::Quant {
            let model = detector.model().ok_or("loaded detector is fitted")?;
            let (mut elements, mut int8) = (0u64, 0u64);
            model.visit_quant_planes("model", &mut |_, plane| {
                elements += (plane.rows() * plane.row_len()) as u64;
                int8 += plane.int8_payload_bytes();
            });
            metrics.set("tensor.weight_bytes.f32", (elements * 4) as f64);
            metrics.set("tensor.weight_bytes.int8", int8 as f64);
            metrics.set("tensor.flops_per_sample", model.inference_profile().flops);
        }
    }
    Ok(())
}

/// The per-layer metrics every workload derives the same way: the mean self
/// time of the spans around each layer call.
pub fn layer_metrics(tracer: &Tracer, metrics: &mut Metrics) {
    let aggs = tracer.aggregates();
    let mean_ns = |n: &str| aggs.get(n).map_or(0.0, |a| a.mean_self_ns());
    for (metric, span, scale) in [
        ("robot.dataset_ms", name::DATASET, 1e6),
        ("core.fit_s", name::FIT, 1e9),
        ("core.persist_save_ms", name::SAVE, 1e6),
        ("core.persist_load_ms", name::LOAD, 1e6),
        ("timeseries.normalize_ns", name::NORMALIZE, 1.0),
        ("timeseries.window_push_ns", name::WINDOW, 1.0),
        ("core.push_us", name::PUSH, 1e3),
        ("core.forward_incremental_us", name::INCREMENTAL, 1e3),
        ("core.forward_full_us", name::FULL, 1e3),
        ("fleet.register_us", name::REGISTER, 1e3),
        ("fleet.publish_us", name::PUBLISH, 1e3),
        ("obs.snapshot_us", name::SNAPSHOT, 1e3),
    ]
    .into_iter()
    .chain(BACKEND_SPANS.iter().flat_map(|b| {
        [
            (b.incremental_metric, b.incremental_span, 1e3),
            (b.full_metric, b.full_span, 1e3),
        ]
    })) {
        metrics.set(metric, mean_ns(span) / scale);
    }
    // The reconciliation row: what a push costs beyond its layer calls.
    let push = mean_ns(name::PUSH);
    let parts = mean_ns(name::NORMALIZE) + mean_ns(name::WINDOW) + mean_ns(name::INCREMENTAL);
    if push > 0.0 {
        metrics.set("bench.residual_pct", (push - parts) / push * 100.0);
    }
}

/// Writes the traced run's spans next to the benchmark's executable and
/// names the file on standard error.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<()> {
    let path = work_dir()?.join(format!("trace-{workload}-seed{seed}.csv"));
    tracer.write_csv(&path)?;
    eprintln!(
        "servebench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(())
}

/// Per-chunk values of the end-to-end time metrics.
///
/// A timed phase is cut into chunks (a fixed stretch of time, a publish
/// cycle or a burst) and every metric is computed per chunk. The reported
/// value is the chunk at the best decile: the 10th percentile for a metric
/// where lower is better, the 90th for throughput. On a shared host, other
/// tenants slow the program in stretches of seconds to minutes, by up to
/// half again (servebench/README.md), and such interference only ever slows
/// it, so the least-disturbed chunks are the steadiest estimate of what the
/// program costs. A change that slows every push moves them as much as the
/// rest.
#[derive(Default)]
pub struct Chunks(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Chunks {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    pub fn len(&self) -> usize {
        self.0.values().map(Vec::len).max().unwrap_or(0)
    }

    pub fn report(&self, metrics: &mut Metrics) {
        for (&metric, values) in &self.0 {
            let best = if metric == "throughput_sps" { 0.9 } else { 0.1 };
            metrics.set(metric, quantile(&mut values.clone(), best));
        }
    }
}

/// Wall-clock seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile (0..=1) of unsorted values, linearly interpolated
/// between the closest ranks.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_unstable_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Histogram of the samples recorded between snapshot `before` and `after`
/// (counts and sums are cumulative, so they subtract exactly).
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count - before.count,
        sum_ns: after.sum_ns.wrapping_sub(before.sum_ns),
        max_ns: after.max_ns,
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// The `q`-quantile (0..=1) of a telemetry histogram in nanoseconds,
/// interpolated linearly inside the bucket that holds the rank, so it moves
/// continuously with the distribution rather than jumping between bucket
/// bounds.
pub fn hist_quantile_ns(hist: &HistogramSnapshot, q: f64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let rank = (q * hist.count as f64).max(1.0);
    let mut seen = 0u64;
    for (k, &n) in hist.buckets.iter().enumerate() {
        if n > 0 && (seen + n) as f64 >= rank {
            let hi = varade_obs::bucket_upper_bound(k) as f64;
            let lo = if k == 0 {
                0.0
            } else {
                varade_obs::bucket_upper_bound(k - 1) as f64 + 1.0
            };
            let within = (rank - seen as f64) / n as f64;
            return (lo + within * (hi - lo)).min(hist.max_ns as f64);
        }
        seen += n;
    }
    hist.max_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_depends_on_seed_and_purpose_only() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
        let mut p = Rng::new(5, 0).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(9, 9);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let head = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 999).count();
        assert!(head > 500 && tail < 20, "head {head} tail {tail}");
    }

    #[test]
    fn weighted_auc_matches_the_metrics_crate() {
        let mut rng = Rng::new(3, 3);
        let n = 500;
        let labels: Vec<bool> = (0..n).map(|_| rng.next_f64() < 0.2).collect();
        let scores: Vec<f32> = (0..n).map(|_| (rng.below(50) as f32) * 0.5).collect();
        let mut tally = Tally {
            first: vec![0; n],
            count: vec![0; n],
            inconsistent: 0,
        };
        let (mut expanded_scores, mut expanded_labels) = (Vec::new(), Vec::new());
        for j in 0..n {
            for _ in 0..=(j % 3) {
                tally.record(j, scores[j]);
                expanded_scores.push(scores[j]);
                expanded_labels.push(labels[j]);
            }
        }
        let expected = varade_metrics::auc_roc(&expanded_scores, &expanded_labels).unwrap();
        assert!((tally.auc(&labels) - expected).abs() < 1e-12);
        assert_eq!(tally.total(), expanded_scores.len() as u64);
        tally.record(0, scores[0] + 1.0);
        assert_eq!(tally.inconsistent, 1);
    }

    #[test]
    fn latency_histogram_quantiles_are_close() {
        let mut h = LatencyHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for q in [0.01, 0.5, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q {q}: {got} vs {exact}"
            );
        }
        assert!((h.mean_ns() - 50_000.5).abs() < 1e-6);
        for ns in [0u64, 1, 127, 128, 129, 255, 256, 1 << 40] {
            let (lo, width) = LatencyHist::bounds(LatencyHist::bucket(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < lo + width,
                "{ns}: {lo}+{width}"
            );
        }
    }

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let h = varade_obs::AtomicHistogram::new();
        for ns in [1_000u64, 1_100, 1_200, 1_300, 5_000] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        let p50 = hist_quantile_ns(&snap, 0.5);
        assert!((1_024.0..=2_047.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile_ns(&snap, 1.0), 5_000.0);
        let empty = hist_delta(&snap, &snap);
        assert_eq!(empty.count, 0);
        assert_eq!(hist_quantile_ns(&empty, 0.5), 0.0);
    }
}
