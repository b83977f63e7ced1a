//! The two fleet workloads. Both serve through `Fleet` on 2 shards with one
//! producer lane under `Block`, fed by the calling thread.
//!
//! * `fleet_paced`: an edge gateway. 512 paper-scale streams each send at
//!   the dataset's 25 Hz on a fixed schedule (an open loop), telemetry on,
//!   with the model re-published from its artifact every few seconds.
//! * `fleet_sparse`: many mostly idle sensors. A one-channel window-8 model
//!   serves 10⁵ streams; a closed loop draws the stream of each push from
//!   Zipf(1.1), telemetry off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use varade_fleet::{
    Fleet, FleetConfig, FleetHandle, FleetOutcome, ModelGroupId, OverloadPolicy, StreamId,
    TelemetryConfig, TelemetrySnapshot,
};
use varade_obs::{HistogramSnapshot, Stage};

use crate::common::{
    backend_rows, hist_delta, hist_quantile_ns, layer_metrics, oracle, prepare, quantile,
    secs_since, write_trace, Chunks, LatencyHist, Result, Rng, Served, Shape, Tally, Zipf, SETUPS,
};
use crate::trace::{name, Tracer};
use crate::{sys, Args, Ledger, Metrics};

const SHARDS: usize = 2;
const PACED_STREAMS: usize = 512;
/// Per-stream send rate of `fleet_paced`: the dataset's sample rate.
const PACED_HZ: f64 = 25.0;
/// One publish cycle of `fleet_paced`: the model is re-published early in
/// each cycle, so the replay it sets off ends inside the cycle.
const PUBLISH_EVERY_S: f64 = 2.5;
/// How often the `fleet_paced` driver scrapes the telemetry snapshot, as an
/// operator's monitoring would; a whole number of scrapes spans a cycle.
const SCRAPE_EVERY_S: f64 = 0.5;
const SPARSE_STREAMS: usize = 100_000;
const ZIPF_S: f64 = 1.1;
/// Samples per closed-loop burst of `fleet_sparse`: the client pushes a
/// burst, then waits until the fleet has scored all of it.
const SPARSE_BURST: usize = 4096;
/// Minimum untimed warm-up; it also always fills every window and primes
/// every cache.
const WARMUP_S: f64 = 1.0;

/// Seed streams, one per input property the seed drives.
const OFFSETS: u64 = 2;
const SEND_ORDER: u64 = 3;
const PUBLISH_TIMES: u64 = 4;
const ZIPF_RANKS: u64 = 5;
const ZIPF_DRAWS: u64 = 6;

/// The registered streams and where each one is in its replay.
struct Streams {
    served: Served,
    ids: Vec<StreamId>,
    offsets: Vec<usize>,
    /// Samples each stream has had accepted so far.
    pushed: Vec<u64>,
}

impl Streams {
    /// Pushes the next row of stream `i`.
    fn push(
        &mut self,
        handle: &FleetHandle<'_>,
        i: usize,
        request: u64,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let row = self
            .served
            .row(self.served.cyclic(self.offsets[i], self.pushed[i]));
        let id = self.ids[i];
        ledger.attempted += 1;
        match tracer.span(name::FLEET_PUSH, request, || handle.push_from(0, id, row)) {
            Ok(()) => self.pushed[i] += 1,
            Err(_) => ledger.fail("push error or reject", 1),
        }
    }
}

/// What a fleet workload serves.
struct Spec {
    shape: Shape,
    streams: usize,
    telemetry: bool,
}

const PACED: Spec = Spec {
    shape: Shape::Paper,
    streams: PACED_STREAMS,
    telemetry: true,
};

const SPARSE: Spec = Spec {
    shape: Shape::Tiny,
    streams: SPARSE_STREAMS,
    telemetry: false,
};

struct Rig {
    fleet: Fleet,
    group: ModelGroupId,
    streams: Streams,
    /// Wall time of the set-up that built this rig.
    setup_s: f64,
    /// Resident memory just before the streams were registered.
    rss_before: u64,
}

/// One set-up: dataset, fit, persist save→load, fleet construction and
/// stream registration.
fn setup(spec: &Spec, seed: u64, rep: u64, tracer: &mut Tracer) -> Result<Rig> {
    let n_streams = spec.streams;
    let started = Instant::now();
    let open = tracer.begin(name::SETUP, rep);
    let served = prepare(spec.shape, rep, tracer)?;
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: SHARDS,
        producer_lanes: 1,
        overload: OverloadPolicy::Block,
        telemetry: if spec.telemetry {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::disabled()
        },
        ..FleetConfig::default()
    })?;
    let group = fleet.register_model(Arc::new(served.artifact.load()?))?;
    let rss_before = sys::rss_bytes();
    let mut ids = Vec::with_capacity(n_streams);
    for i in 0..n_streams {
        let normalizer = served.normalizer.clone();
        ids.push(tracer.span(name::REGISTER, i as u64, || {
            fleet.register_stream(group, normalizer)
        })?);
    }
    tracer.end(open);
    // Replay offsets tile the split evenly, so every row is scored about
    // equally often and accuracy does not hinge on which rows a seed picks;
    // the seed rotates the tiling and deals the offsets out to streams.
    let mut rng = Rng::new(seed, OFFSETS);
    let rows = served.n_rows();
    let rotation = rng.below(rows);
    let offsets = rng
        .permutation(n_streams)
        .into_iter()
        .map(|slot| (rotation + slot * rows / n_streams) % rows)
        .collect();
    let streams = Streams {
        served,
        ids,
        offsets,
        pushed: vec![0; n_streams],
    };
    Ok(Rig {
        fleet,
        group,
        streams,
        setup_s: secs_since(started),
        rss_before,
    })
}

/// What one serve window measured.
struct Window {
    wall_s: f64,
    /// CPU time of the whole process and of the driving thread.
    cpu_ns: u64,
    generator_cpu_ns: u64,
    /// Serve windows merged into this one, and their summed drain time.
    windows: u32,
    drain_s: f64,
    /// Push → end of the serve window, per push (closed loop).
    reply: LatencyHist,
    /// How late each scheduled send ran (open loop).
    late: LatencyHist,
    /// Scores of this window by the row each one scored.
    scores: Tally,
    chunks: Chunks,
    outcome: FleetOutcome,
}

/// What the driver measured from inside the serve window.
#[derive(Default)]
struct DriverReport {
    ended: Option<Instant>,
    chunks: Chunks,
    /// When each push of a closed-loop burst was made.
    push_at: Vec<Instant>,
    late: LatencyHist,
}

/// Opens a serve window, runs `drive` as its driver, and settles the
/// window's ledger: every accepted push is scored, still warming up, or
/// dropped, and each stream's scores map to the rows it was sent.
fn serve(
    rig: &mut Rig,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    drive: impl FnOnce(
        &FleetHandle<'_>,
        &mut Streams,
        &mut Tracer,
        &mut Ledger,
        &mut DriverReport,
    ) -> Result<()>,
) -> Result<Window> {
    let Rig { fleet, streams, .. } = rig;
    let before = streams.pushed.clone();
    let mut report = DriverReport::default();
    let mut driver_error = None;
    let generator0 = sys::thread_cpu_ns();
    let cpu0 = sys::process_cpu_ns();
    let started = Instant::now();
    let ((), outcome) = fleet.run(|handle| {
        if let Err(e) = drive(handle, streams, tracer, ledger, &mut report) {
            driver_error = Some(e);
        }
        report.ended = Some(Instant::now());
        Ok(())
    })?;
    let returned = Instant::now();
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let generator_cpu_ns = sys::thread_cpu_ns() - generator0;
    if let Some(e) = driver_error {
        return Err(e);
    }

    let window = streams.served.window as u64;
    let mut scored = Tally::new(&streams.served);
    let (mut accepted, mut warming, mut scores) = (0u64, 0u64, 0u64);
    for (i, got) in outcome.scores.iter().enumerate() {
        let (k0, k1) = (before[i], streams.pushed[i]);
        let first = k0.max(window);
        let expected = k1.saturating_sub(first);
        ledger.fail(
            "ledger: a stream's scores differ from its pushes past warm-up",
            expected.abs_diff(got.len() as u64),
        );
        for (n, &score) in got.iter().enumerate() {
            let row = streams.served.cyclic(streams.offsets[i], first + n as u64);
            scored.record(row, score);
        }
        accepted += k1 - k0;
        warming += k1.min(window) - k0.min(window);
        scores += got.len() as u64;
    }
    let dropped = outcome.stats.dropped;
    ledger.fail("dropped sample", dropped);
    ledger.fail(
        "ledger: pushed != scored + warm-up + dropped",
        accepted.abs_diff(scores + warming + dropped),
    );
    ledger.fail(
        "ledger: fleet stats disagree with the returned scores",
        outcome.stats.global.scores.abs_diff(scores),
    );
    Ok(Window {
        wall_s: (returned - started).as_secs_f64(),
        cpu_ns,
        generator_cpu_ns,
        windows: 1,
        drain_s: report
            .ended
            .map_or(0.0, |ended| (returned - ended).as_secs_f64()),
        reply: {
            let mut reply = LatencyHist::default();
            for &at in &report.push_at {
                reply.record((returned - at).as_nanos() as u64);
            }
            reply
        },
        late: report.late,
        chunks: report.chunks,
        scores: scored,
        outcome,
    })
}

/// Untimed warm-up: passes of one sample per stream, each its own serve
/// window so the backlog (and with it the memory high-water mark) stays at
/// one pass, until every stream has filled its window and scored once
/// (priming its cache) and at least [`WARMUP_S`] has passed. Returns the
/// last pass with the scores of every pass merged in.
fn warm_up(rig: &mut Rig, ledger: &mut Ledger) -> Result<Window> {
    let mut quiet = Tracer::new(false);
    let need = rig.streams.served.window + 1;
    let started = Instant::now();
    let mut scores = Tally::new(&rig.streams.served);
    let mut pass = 0;
    loop {
        let mut last = serve(
            rig,
            &mut quiet,
            ledger,
            |handle, streams, tracer, ledger, _| {
                for i in 0..streams.ids.len() {
                    streams.push(handle, i, 0, tracer, ledger);
                }
                Ok(())
            },
        )?;
        scores.merge(&last.scores);
        pass += 1;
        if pass >= need && secs_since(started) >= WARMUP_S {
            last.scores = scores;
            return Ok(last);
        }
    }
}

fn telemetry(window: &Window) -> &TelemetrySnapshot {
    window
        .outcome
        .telemetry
        .as_ref()
        .expect("fleet_paced serves with telemetry on")
}

fn replays(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot
        .events
        .counts
        .iter()
        .filter(|c| c.kind == "cache_invalidation")
        .map(|c| c.count)
        .sum()
}

/// One `fleet_paced` serve window: sends on a fixed schedule of
/// `PACED_STREAMS × PACED_HZ` samples per second for `seconds`,
/// re-publishing the model at a seeded moment 0.25–0.75 s into each
/// [`PUBLISH_EVERY_S`] cycle, and scraping telemetry every
/// [`SCRAPE_EVERY_S`]. A scrape that ends a cycle records the cycle's p50
/// and its p99, which the publish replay sets, as one chunk (see
/// [`Chunks`]).
fn paced_window(
    rig: &mut Rig,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Window> {
    let n = rig.streams.ids.len();
    let order = Rng::new(seed, SEND_ORDER).permutation(n);
    let period_s = 1.0 / (n as f64 * PACED_HZ);
    let sends = (seconds / period_s).round() as u64;
    let mut rng = Rng::new(seed, PUBLISH_TIMES);
    let publish_at: Vec<f64> = (0..(seconds / PUBLISH_EVERY_S).ceil() as usize)
        .map(|p| p as f64 * PUBLISH_EVERY_S + 0.25 + 0.5 * rng.next_f64())
        .filter(|&at| at < seconds)
        .collect();
    // Bit-identical copies of the served model, loaded from its artifact
    // before the window opens; alternating them makes each publish a swap.
    let copies = [
        Arc::new(rig.streams.served.artifact.load()?),
        Arc::new(rig.streams.served.artifact.load()?),
    ];
    let group = rig.group;
    serve(
        rig,
        tracer,
        ledger,
        |handle, streams, tracer, ledger, report| {
            let mut published = 0;
            let mut scrapes = 1;
            let mut cycle_base = tracer
                .span(name::SNAPSHOT, 0, || handle.telemetry())
                .merged_end_to_end();
            let scrapes_per_cycle = (PUBLISH_EVERY_S / SCRAPE_EVERY_S).round() as u64;
            let started = Instant::now();
            for i in 0..sends {
                let due = started + Duration::from_secs_f64(i as f64 * period_s);
                let mut now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    now = Instant::now();
                }
                report.late.record((now - due).as_nanos() as u64);
                streams.push(handle, order[(i % n as u64) as usize], i, tracer, ledger);
                let at = (now - started).as_secs_f64();
                if published < publish_at.len() && at >= publish_at[published] {
                    let copy = Arc::clone(&copies[published % 2]);
                    tracer.span(name::PUBLISH, i, || handle.publish_model(group, copy))?;
                    published += 1;
                }
                if at >= scrapes as f64 * SCRAPE_EVERY_S {
                    let snapshot = tracer.span(name::SNAPSHOT, i, || handle.telemetry());
                    if scrapes % scrapes_per_cycle == 0 {
                        let end_to_end = snapshot.merged_end_to_end();
                        cycle_chunk(&mut report.chunks, &end_to_end, &cycle_base);
                        cycle_base = end_to_end;
                    }
                    scrapes += 1;
                }
            }
            if report.chunks.len() == 0 {
                // A phase shorter than one cycle reports its partial cycle.
                let snapshot = tracer.span(name::SNAPSHOT, sends, || handle.telemetry());
                cycle_chunk(
                    &mut report.chunks,
                    &snapshot.merged_end_to_end(),
                    &cycle_base,
                );
            }
            Ok(())
        },
    )
}

/// Records the push → score latency of one publish cycle, the telemetry
/// recorded between two snapshots, as a chunk.
fn cycle_chunk(chunks: &mut Chunks, end_to_end: &HistogramSnapshot, base: &HistogramSnapshot) {
    let cycle = hist_delta(end_to_end, base);
    for (metric, q) in [("latency_p50_us", 0.50), ("latency_p99_us", 0.99)] {
        chunks.push(metric, hist_quantile_ns(&cycle, q) / 1e3);
    }
}

/// One burst of the `fleet_sparse` closed loop: a serve window into which
/// the driver pushes [`SPARSE_BURST`] samples to Zipf-drawn streams; the
/// burst completes when the window has scored them all.
fn sparse_burst(
    rig: &mut Rig,
    zipf: &Zipf,
    ranks: &[usize],
    draws: &mut Rng,
    request: &mut u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Window> {
    serve(
        rig,
        tracer,
        ledger,
        |handle, streams, tracer, ledger, report| {
            report.push_at.reserve(SPARSE_BURST);
            for _ in 0..SPARSE_BURST {
                let stream = ranks[zipf.sample(draws)];
                report.push_at.push(Instant::now());
                streams.push(handle, stream, *request, tracer, ledger);
                *request += 1;
            }
            tracer.span(name::SNAPSHOT, *request, || handle.telemetry());
            Ok(())
        },
    )
}

/// Records one burst as a chunk (see [`Chunks`]).
fn burst_chunk(burst: &Window, chunks: &mut Chunks) {
    let scored = burst.scores.total().max(1) as f64;
    chunks.push("throughput_sps", scored / burst.wall_s);
    chunks.push("latency_p50_us", burst.reply.quantile_ns(0.50) / 1e3);
    chunks.push("latency_p99_us", burst.reply.quantile_ns(0.99) / 1e3);
    chunks.push("cpu_us_per_sample", burst.cpu_ns as f64 / 1e3 / scored);
}

/// Bursts for `seconds`, merged into one [`Window`] with one chunk per
/// burst.
fn sparse_window(
    rig: &mut Rig,
    seconds: f64,
    zipf: &Zipf,
    ranks: &[usize],
    draws: &mut Rng,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Window> {
    let started = Instant::now();
    let mut request = 0;
    let mut merged = sparse_burst(rig, zipf, ranks, draws, &mut request, tracer, ledger)?;
    let mut chunks = Chunks::default();
    burst_chunk(&merged, &mut chunks);
    merged.chunks = chunks;
    while secs_since(started) < seconds {
        let burst = sparse_burst(rig, zipf, ranks, draws, &mut request, tracer, ledger)?;
        burst_chunk(&burst, &mut merged.chunks);
        merged.wall_s += burst.wall_s;
        merged.cpu_ns += burst.cpu_ns;
        merged.generator_cpu_ns += burst.generator_cpu_ns;
        merged.windows += 1;
        merged.drain_s += burst.drain_s;
        merged.reply.merge(&burst.reply);
        merged.scores.merge(&burst.scores);
        let stats = &mut merged.outcome.stats;
        stats.steals += burst.outcome.stats.steals;
        stats.dropped += burst.outcome.stats.dropped;
        stats.queue_depth_high_water = stats
            .queue_depth_high_water
            .max(burst.outcome.stats.queue_depth_high_water);
    }
    Ok(merged)
}

/// Per-layer metrics every fleet workload reads off its traced window.
fn fleet_layers(window: &Window, rss_per_stream: f64, tracer: &Tracer, metrics: &mut Metrics) {
    let mut push: Vec<f64> = tracer
        .self_times(name::FLEET_PUSH)
        .into_iter()
        .map(|ns| ns as f64)
        .collect();
    if !push.is_empty() {
        metrics.set("fleet.push_p50_ns", quantile(&mut push, 0.50));
        metrics.set("fleet.push_p99_ns", quantile(&mut push, 0.99));
    }
    let stats = &window.outcome.stats;
    metrics.set("fleet.rss_per_stream_bytes", rss_per_stream);
    metrics.set(
        "fleet.drain_ms",
        window.drain_s * 1e3 / f64::from(window.windows),
    );
    let wall_ns = window.wall_s * 1e9;
    let worker_ns = window.cpu_ns.saturating_sub(window.generator_cpu_ns) as f64;
    metrics.set(
        "fleet.worker_busy_pct",
        worker_ns / (wall_ns * SHARDS as f64) * 100.0,
    );
    metrics.set(
        "fleet.generator_cpu_pct",
        window.generator_cpu_ns as f64 / wall_ns * 100.0,
    );
    metrics.set("fleet.steals", stats.steals as f64);
    metrics.set(
        "fleet.queue_depth_high_water",
        stats.queue_depth_high_water as f64,
    );
    metrics.set("fleet.dropped", stats.dropped as f64);
}

/// The tail of every fleet workload: oracle check of every score, peak
/// memory, more set-ups for the set-up median, per-layer metrics.
fn finish(
    args: &Args,
    spec: &Spec,
    rig: Rig,
    checked: Vec<Tally>,
    mut tracer: Tracer,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<()> {
    let served = &rig.streams.served;
    let oracle = oracle(served, &mut tracer)?;
    ledger.fail(
        "oracle replay disagrees with score_window",
        oracle.mismatches,
    );
    ledger.fail(
        "score differs from the full-recompute oracle",
        checked.iter().map(|t| t.mismatches(&oracle)).sum(),
    );
    if args.trace {
        backend_rows(served, &mut tracer, metrics)?;
    }
    metrics.set(
        "peak_rss_mb",
        sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    let mut setups = vec![rig.setup_s];
    drop(rig);
    for rep in 1..SETUPS {
        setups.push(setup(spec, args.seed, rep, &mut tracer)?.setup_s);
    }
    metrics.set("setup_s", quantile(&mut setups, 0.5));
    if args.trace {
        layer_metrics(&tracer, metrics);
        write_trace(&tracer, &args.workload, args.seed)?;
    }
    Ok(())
}

pub fn run_paced(args: &Args, metrics: &mut Metrics, ledger: &mut Ledger) -> Result<()> {
    let mut tracer = Tracer::new(args.trace);
    let mut rig = setup(&PACED, args.seed, 0, &mut tracer)?;
    let warm = warm_up(&mut rig, ledger)?;
    let rss_per_stream =
        sys::rss_bytes().saturating_sub(rig.rss_before) as f64 / PACED_STREAMS as f64;
    let mut quiet = Tracer::new(false);

    let plain = paced_window(&mut rig, args.seconds, args.seed, &mut quiet, ledger)?;
    let e2e = |w: &Window, base: &Window| -> HistogramSnapshot {
        hist_delta(
            &telemetry(w).merged_end_to_end(),
            &telemetry(base).merged_end_to_end(),
        )
    };
    let plain_e2e = e2e(&plain, &warm);
    let mut checked = vec![warm.scores];
    println!(
        "# latency samples (push -> score): {} in {} publish cycles",
        plain_e2e.count,
        plain.chunks.len()
    );
    // Latency comes from the least-disturbed publish cycles; the rest is
    // taken over the whole phase: throughput drops only if a backlog
    // outlasts the phase, and the CPU must include every publish replay.
    plain.chunks.report(metrics);
    let scored = plain.scores.total().max(1) as f64;
    metrics.set("throughput_sps", scored / plain.wall_s);
    metrics.set("cpu_us_per_sample", plain.cpu_ns as f64 / 1e3 / scored);
    metrics.set("auc_roc", plain.scores.auc(&rig.streams.served.labels));

    if args.trace {
        let traced = paced_window(&mut rig, args.seconds, args.seed, &mut tracer, ledger)?;
        let traced_e2e = e2e(&traced, &plain);
        metrics.set(
            "bench.trace_overhead_pct",
            (traced_e2e.mean_ns() - plain_e2e.mean_ns()) / plain_e2e.mean_ns() * 100.0,
        );
        for (stage, metric) in [
            (Stage::QueueWait, "obs.stage_mean_us.queue_wait"),
            (Stage::Assembly, "obs.stage_mean_us.assembly"),
            (Stage::Normalize, "obs.stage_mean_us.normalize"),
            (Stage::Forward, "obs.stage_mean_us.forward"),
            (Stage::Emit, "obs.stage_mean_us.emit"),
        ] {
            let delta = hist_delta(
                &telemetry(&traced).merged_stage(stage),
                &telemetry(&plain).merged_stage(stage),
            );
            metrics.set(metric, delta.mean_ns() / 1e3);
        }
        metrics.set(
            "core.replay_count",
            (replays(telemetry(&traced)) - replays(telemetry(&plain))) as f64,
        );
        metrics.set("bench.gen_late_p99_us", traced.late.quantile_ns(0.99) / 1e3);
        fleet_layers(&traced, rss_per_stream, &tracer, metrics);
        checked.push(traced.scores);
    }
    checked.push(plain.scores);
    finish(args, &PACED, rig, checked, tracer, metrics, ledger)
}

pub fn run_sparse(args: &Args, metrics: &mut Metrics, ledger: &mut Ledger) -> Result<()> {
    let mut tracer = Tracer::new(args.trace);
    let mut rig = setup(&SPARSE, args.seed, 0, &mut tracer)?;
    let warm = warm_up(&mut rig, ledger)?;
    let rss_per_stream =
        sys::rss_bytes().saturating_sub(rig.rss_before) as f64 / SPARSE_STREAMS as f64;
    let mut checked = vec![warm.scores];
    let zipf = Zipf::new(SPARSE_STREAMS, ZIPF_S);
    let ranks = Rng::new(args.seed, ZIPF_RANKS).permutation(SPARSE_STREAMS);
    let mut draws = Rng::new(args.seed, ZIPF_DRAWS);
    let mut quiet = Tracer::new(false);

    let plain = sparse_window(
        &mut rig,
        args.seconds,
        &zipf,
        &ranks,
        &mut draws,
        &mut quiet,
        ledger,
    )?;
    println!(
        "# latency samples (push -> burst scored): {} in {} bursts",
        plain.reply.count(),
        plain.chunks.len()
    );
    plain.chunks.report(metrics);
    metrics.set("auc_roc", plain.scores.auc(&rig.streams.served.labels));

    if args.trace {
        let traced = sparse_window(
            &mut rig,
            args.seconds,
            &zipf,
            &ranks,
            &mut draws,
            &mut tracer,
            ledger,
        )?;
        let per_sample = |w: &Window| w.wall_s / w.scores.total().max(1) as f64;
        metrics.set(
            "bench.trace_overhead_pct",
            (per_sample(&traced) - per_sample(&plain)) / per_sample(&plain) * 100.0,
        );
        fleet_layers(&traced, rss_per_stream, &tracer, metrics);
        checked.push(traced.scores);
    }
    checked.push(plain.scores);
    finish(args, &SPARSE, rig, checked, tracer, metrics, ledger)
}
