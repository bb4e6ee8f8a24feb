//! `fleet_steady` and `fleet_churn`: a cohort of captured sessions
//! replayed through the multiplexed ingest service, round by round.
//!
//! The loop is closed in rounds: the generator lists the round's
//! chunks, every chunk is offered, `process_round` drains the shards,
//! and only then is the next round offered. Round latency is the time
//! for the offers plus `process_round`; the generator is timed apart.

use std::time::Instant;

use distscroll_ingest::loadgen::{capture_template, CohortLoad, LinkProfile};
use distscroll_ingest::{IngestConfig, IngestService, IngestStats};

use crate::trace::{SpanId, Tracer};

/// Shards of the service.
pub const SHARDS: usize = 8;
/// Capture rounds per template (plus the capture's 8-round drain tail).
pub const TEMPLATE_ROUNDS: u64 = 200;
/// Simulated milliseconds per capture round.
const ROUND_MS: u64 = 100;
/// Start offsets spread over this many rounds.
const STAGGER: u64 = 8;

/// The link conditions the templates are captured under.
pub const CONDITIONS: [LinkProfile; 3] = [
    LinkProfile::CLEAN,
    LinkProfile {
        drop_prob: 0.02,
        ber: 0.0,
        jitter_ms: 5,
    },
    LinkProfile::LOSSY,
];

/// A cohort and the service configuration that replays it.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub load: CohortLoad,
    pub cfg: IngestConfig,
    pub expected: u64,
}

/// Captures the templates and sizes the service. With `churn`, each
/// shard keeps only half its devices' sessions, so eviction and resync
/// run on every round; otherwise every session stays resident.
pub fn setup(seed: u64, devices: u64, churn: bool) -> Fleet {
    let templates = CONDITIONS
        .iter()
        .enumerate()
        .map(|(i, &link)| {
            let s = seed.wrapping_add(0x9e37_79b9u64.wrapping_mul(i as u64 + 1));
            capture_template(link, TEMPLATE_ROUNDS, ROUND_MS, s)
        })
        .collect();
    let load = CohortLoad::new(templates, devices, STAGGER);
    let per_shard = devices.div_ceil(SHARDS as u64) as usize;
    let cfg = IngestConfig {
        shards: SHARDS,
        // A device offers at most one chunk per round: a shard never
        // holds more than its devices' batches, so nothing is shed.
        high_water: per_shard.max(64),
        session_capacity: if churn {
            (per_shard / 2).max(1)
        } else {
            per_shard
        },
    };
    let expected = load.expected_records();
    Fleet {
        load,
        cfg,
        expected,
    }
}

/// Spans of the round loop.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    pub for_round: SpanId,
    pub offer: SpanId,
    pub process_round: SpanId,
}

impl Spans {
    pub fn register(t: &mut Tracer) -> Self {
        Spans {
            for_round: t.register("ingest.loadgen.for_round", None),
            offer: t.register("ingest.offer", None),
            process_round: t.register("ingest.process_round", None),
        }
    }
}

/// One replay of the whole cohort.
#[derive(Debug, Clone)]
pub struct Pass {
    pub stats: IngestStats,
    /// Offer + process time of each round, milliseconds.
    pub round_ms: Vec<f64>,
    /// Offers made (batches, including any shed).
    pub offers: u64,
}

/// Replays the cohort once through a fresh service.
pub fn pass(fleet: &Fleet, jobs: usize, tracer: &mut Tracer, spans: &Spans) -> Pass {
    let mut svc = IngestService::new(&fleet.cfg);
    let rounds = fleet.load.rounds();
    let mut round_ms = Vec::with_capacity(rounds as usize);
    // The generator's output for one round: chunk bytes back to back,
    // and (device, end offset) per chunk.
    let mut bytes: Vec<u8> = Vec::new();
    let mut batch: Vec<(u64, usize)> = Vec::with_capacity(fleet.load.devices as usize);
    let mut offers = 0u64;
    for round in 0..rounds {
        tracer.enter(spans.for_round);
        bytes.clear();
        batch.clear();
        fleet.load.for_round(round, |device, chunk| {
            bytes.extend_from_slice(chunk);
            batch.push((device, bytes.len()));
        });
        tracer.exit();
        let t0 = Instant::now();
        tracer.enter(spans.offer);
        let mut start = 0;
        for &(device, end) in &batch {
            // A shed chunk is counted in the shard's books.
            let _ = svc.offer(device, &bytes[start..end]);
            start = end;
        }
        tracer.exit();
        tracer.enter(spans.process_round);
        svc.process_round(jobs);
        tracer.exit();
        round_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
        offers += batch.len() as u64;
    }
    Pass {
        stats: svc.finish(),
        round_ms,
        offers,
    }
}

/// Failed operations of a pass: records the service could not parse
/// plus batches it shed.
pub fn failures(stats: &IngestStats) -> u64 {
    stats.totals.records_bad + stats.totals.shed_batches
}

/// Distance of the delivered record count from ground truth.
pub fn divergence(stats: &IngestStats, expected: u64) -> u64 {
    stats.totals.records.abs_diff(expected)
}
