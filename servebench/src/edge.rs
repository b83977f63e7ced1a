//! `edge_stream`: one arm on one edge board. A closed loop on one thread
//! pushes raw rows of the collision split, replayed cyclically from a seeded
//! offset, through `StreamingVarade::push` on the paper-scale model.

use std::time::Instant;

use varade::StreamingVarade;

use crate::common::{
    backend_rows, layer_metrics, oracle, prepare, quantile, secs_since, write_trace, Chunks,
    LatencyHist, Result, Rng, Served, Shadow, Shape, Tally, SETUPS,
};
use crate::trace::{name, Tracer};
use crate::{sys, Args, Ledger, Metrics};

/// Untimed warm-up before the timed phase: long enough to fill the window,
/// prime the cache and settle the CPU's clocks and caches.
const WARMUP_S: f64 = 1.0;

/// Length of one chunk of the timed phase (see [`Chunks`]).
const CHUNK_S: f64 = 0.5;

/// Seed stream of the replay offset.
const OFFSET_PURPOSE: u64 = 1;

/// One set-up: dataset, fit, persist save→load, stream construction.
fn setup(rep: u64, tracer: &mut Tracer) -> Result<(Served, StreamingVarade, f64)> {
    let started = Instant::now();
    let open = tracer.begin(name::SETUP, rep);
    let served = prepare(Shape::Paper, rep, tracer)?;
    let detector = served.artifact.load()?;
    let stream = StreamingVarade::new(detector, served.n_channels, served.normalizer.clone())?;
    tracer.end(open);
    Ok((served, stream, secs_since(started)))
}

/// The served stream and how far its cyclic replay of the split has got.
struct Replay {
    stream: StreamingVarade,
    offset: usize,
    pushed: u64,
}

impl Replay {
    /// Pushes the next row inside a span; returns the row and its score.
    fn push(
        &mut self,
        served: &Served,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> (usize, Option<f32>) {
        let row = served.cyclic(self.offset, self.pushed);
        let stream = &mut self.stream;
        let pushed = tracer.span(name::PUSH, self.pushed, || stream.push(served.row(row)));
        ledger.attempted += 1;
        self.pushed += 1;
        let score = pushed.unwrap_or_else(|_| {
            ledger.fail("push error", 1);
            None
        });
        (row, score)
    }
}

/// What one timed phase measured.
struct Phase {
    /// Per-push wall time.
    latency: LatencyHist,
    scores: Tally,
    chunks: Chunks,
}

/// Pushes rows for `seconds`. With `shadow`, every push is traced and
/// followed by its decomposition into layer calls, whose incremental and
/// full-recompute scores must equal the pushed score bit for bit.
fn phase(
    served: &Served,
    replay: &mut Replay,
    seconds: f64,
    mut shadow: Option<&mut Shadow<'_>>,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Phase {
    let mut latency = LatencyHist::default();
    let mut scores = Tally::new(served);
    let mut chunks = Chunks::default();
    let mut chunk = LatencyHist::default();
    let mut chunk_scored = 0u64;
    let mut chunk_cpu = sys::thread_cpu_ns();
    let started = Instant::now();
    let mut chunk_started = started;
    loop {
        let request = tracer.begin(name::REQUEST, replay.pushed);
        let before = Instant::now();
        let (j, pushed) = replay.push(served, tracer, ledger);
        let after = Instant::now();
        if let Some(shadow) = shadow.as_deref_mut() {
            match shadow.step(served.row(j), replay.pushed - 1, true, tracer) {
                Ok(step) => {
                    let bits = |s: Option<f32>| s.map(f32::to_bits);
                    let same =
                        bits(pushed) == bits(step.incremental) && bits(pushed) == bits(step.full);
                    ledger.fail("decomposed push differs from push", u64::from(!same));
                }
                Err(_) => ledger.fail("decomposed push failed", 1),
            }
        }
        tracer.end(request);
        if let Some(score) = pushed {
            scores.record(j, score);
            chunk_scored += 1;
        }
        let ns = (after - before).as_nanos() as u64;
        latency.record(ns);
        chunk.record(ns);
        let chunk_s = (after - chunk_started).as_secs_f64();
        let done = (after - started).as_secs_f64() >= seconds;
        // A phase shorter than one chunk reports its partial chunk.
        if chunk_s >= CHUNK_S || (done && chunks.len() == 0) {
            let cpu = sys::thread_cpu_ns();
            let scored = chunk_scored.max(1) as f64;
            chunks.push("throughput_sps", chunk_scored as f64 / chunk_s);
            chunks.push("latency_p50_us", chunk.quantile_ns(0.50) / 1e3);
            chunks.push("latency_p99_us", chunk.quantile_ns(0.99) / 1e3);
            chunks.push("cpu_us_per_sample", (cpu - chunk_cpu) as f64 / 1e3 / scored);
            (chunk, chunk_scored, chunk_cpu, chunk_started) =
                (LatencyHist::default(), 0, cpu, after);
        }
        if done {
            break;
        }
    }
    Phase {
        latency,
        scores,
        chunks,
    }
}

pub fn run(args: &Args, metrics: &mut Metrics, ledger: &mut Ledger) -> Result<()> {
    let mut tracer = Tracer::new(args.trace);
    let (served, stream, first_setup_s) = setup(0, &mut tracer)?;
    let mut replay = Replay {
        stream,
        offset: Rng::new(args.seed, OFFSET_PURPOSE).below(served.n_rows()),
        pushed: 0,
    };

    let mut untraced = Tracer::new(false);
    let mut warm = Tally::new(&served);
    let warm_started = Instant::now();
    while replay.pushed <= served.window as u64 || secs_since(warm_started) < WARMUP_S {
        if let (row, Some(score)) = replay.push(&served, &mut untraced, ledger) {
            warm.record(row, score);
        }
    }

    let plain = phase(
        &served,
        &mut replay,
        args.seconds,
        None,
        &mut untraced,
        ledger,
    );
    println!(
        "# latency samples (push call): {} in {} chunks of {CHUNK_S} s",
        plain.latency.count(),
        plain.chunks.len()
    );
    plain.chunks.report(metrics);
    metrics.set("auc_roc", plain.scores.auc(&served.labels));
    let mut checked = vec![warm, plain.scores];

    if args.trace {
        let shadow_detector = served.artifact.load()?;
        let mut shadow = Shadow::new(&served, &shadow_detector)?;
        // Bring the decomposition's window and cache level with the stream.
        for back in (1..=served.window as u64 + 1).rev() {
            let row = served.cyclic(replay.offset, replay.pushed - back);
            shadow.step(served.row(row), 0, false, &mut untraced)?;
        }
        let traced = phase(
            &served,
            &mut replay,
            args.seconds,
            Some(&mut shadow),
            &mut tracer,
            ledger,
        );
        let (untraced_ns, traced_ns) = (plain.latency.mean_ns(), traced.latency.mean_ns());
        metrics.set(
            "bench.trace_overhead_pct",
            (traced_ns - untraced_ns) / untraced_ns * 100.0,
        );
        checked.push(traced.scores);
        backend_rows(&served, &mut tracer, metrics)?;
    }

    // Correctness, outside every timed region: each score must equal the
    // full-recompute oracle of its row bit for bit.
    let oracle = oracle(&served, &mut untraced)?;
    ledger.fail(
        "oracle replay disagrees with score_window",
        oracle.mismatches,
    );
    ledger.fail(
        "score differs from the full-recompute oracle",
        checked.iter().map(|t| t.mismatches(&oracle)).sum(),
    );
    metrics.set(
        "peak_rss_mb",
        sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );

    drop((served, replay));
    let mut setups = vec![first_setup_s];
    for rep in 1..SETUPS {
        setups.push(setup(rep, &mut tracer)?.2);
    }
    metrics.set("setup_s", quantile(&mut setups, 0.5));
    if args.trace {
        layer_metrics(&tracer, metrics);
        write_trace(&tracer, &args.workload, args.seed)?;
    }
    Ok(())
}
