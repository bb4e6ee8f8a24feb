//! `session`: the per-record pipeline, closed loop, one device at a time.
//!
//! Each session is a `DeviceProfile::paper()` device with ARQ on, run
//! for five simulated minutes in 100 ms epochs. Every epoch the script
//! moves the hand, runs the firmware, clicks on a cadence, drains the
//! device's event log (the ground truth) and its radio, decodes on the
//! host, logs the records and sends the ack back. Even sessions use a
//! clean radio, odd ones the [`lossy_radio`].

use std::time::Instant;

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_host::session::SessionLog;
use distscroll_host::telemetry::{EventKind, Record, StreamDecoder};
use distscroll_hw::arq::LinkQuality;
use distscroll_hw::board::Telemetry;
use distscroll_hw::link::RadioChannel;
use distscroll_hw::power::Battery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Histogram;
use crate::trace::{SpanId, Tracer};

/// Scripted epochs per session: five simulated minutes.
pub const EPOCHS: u64 = 3_000;
/// Idle epochs after the script, so the retransmit queue drains.
pub const DRAIN_EPOCHS: u64 = 30;
/// Simulated milliseconds per epoch.
pub const EPOCH_MS: u64 = 100;
/// Menu entries on the device.
const MENU_LEN: usize = 8;

/// The radio of the odd (lossy) sessions: 10 % of frames lost in each
/// direction, no bit errors.
///
/// The session check demands that every event the device logged reaches
/// the host intact. That holds only on a channel without bit errors: a
/// corrupted frame passes the CRC-16 with probability 2^-16 (DESIGN.md
/// §12), which at 5e-4 bit errors is about one session in 12 000, so a
/// bit-error link would fail runs at arbitrary seeds. Loss still drives
/// the ARQ's retransmits, duplicates and reordering; corrupted-stream
/// decoding is timed in isolation (see `layers`).
pub fn lossy_radio() -> RadioChannel {
    RadioChannel::lossy(0.1, 0.0)
}

/// One session's script, drawn from the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Script {
    pub device_seed: u64,
    pub lossy: bool,
    /// Sweep angular rate, radians per epoch.
    pub rate: f64,
    pub phase: f64,
    /// Select every `select_every` epochs, back every `back_every`.
    pub select_every: u64,
    pub back_every: u64,
}

impl Script {
    /// The script of session `index` under `seed`.
    pub fn new(seed: u64, index: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Script {
            device_seed: rng.gen(),
            lossy: index % 2 == 1,
            rate: rng.gen_range(0.2..0.5),
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            select_every: rng.gen_range(5..10),
            back_every: rng.gen_range(9..14),
        }
    }

    fn distance_at(&self, epoch: u64) -> f64 {
        17.0 + 13.0 * (epoch as f64 * self.rate + self.phase).sin()
    }

    /// The device, host decoder and log of a fresh session.
    pub fn build(&self) -> Parts {
        let mut profile = DeviceProfile::paper();
        profile.arq = true;
        let mut dev = DistScrollDevice::new(profile, Menu::flat(MENU_LEN), self.device_seed);
        dev.set_battery(Battery::with_capacity(1e12));
        dev.set_radio(if self.lossy {
            lossy_radio()
        } else {
            RadioChannel::clean()
        });
        (dev, StreamDecoder::with_arq(), SessionLog::new())
    }
}

/// A session's device, host decoder and host log.
pub type Parts = (DistScrollDevice, StreamDecoder, SessionLog);

/// Spans of the session loop.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    pub run_for_ms: SpanId,
    pub click_select: SpanId,
    pub click_back: SpanId,
    pub poll_events: SpanId,
    pub poll_telemetry: SpanId,
    pub push_bytes_with: SpanId,
    pub ingest: SpanId,
    pub host_send: SpanId,
}

impl Spans {
    pub fn register(t: &mut Tracer) -> Self {
        let push = t.register("host.telemetry.push_bytes_with", None);
        Spans {
            run_for_ms: t.register("core.device.run_for_ms", None),
            click_select: t.register("core.device.click_select", None),
            click_back: t.register("core.device.click_back", None),
            poll_events: t.register("core.device.poll_events", None),
            poll_telemetry: t.register("core.device.poll_telemetry", None),
            push_bytes_with: push,
            ingest: t.register("host.session.ingest", Some(push)),
            host_send: t.register("core.device.host_send", None),
        }
    }
}

/// What one event looks like on the wire: tick stamp, kind, and the aux
/// byte where the event itself determines it (highlight index, path
/// depth; the firmware fills other events' aux with the menu level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvent {
    pub tick: u64,
    pub kind: EventKind,
    pub aux: Option<u8>,
}

/// The device's own log entry as the host should see it, or `None` for
/// an event with no wire tag the host decodes.
pub fn expected_wire(e: &TimedEvent, tick_us: u64) -> Option<WireEvent> {
    let aux = match &e.event {
        Event::Highlight { index, .. } => Some(*index as u8),
        Event::Activated { path } => Some(path.len() as u8),
        _ => None,
    };
    Some(WireEvent {
        // The firmware stamps a record with its tick counter, which it
        // bumps at the start of the tick whose start time is `at`.
        tick: e.at.as_micros() / tick_us + 1,
        kind: EventKind::from_tag(e.event.wire_tag())?,
        aux,
    })
}

/// The event records of a host log, in timeline order.
pub fn logged_events(log: &SessionLog) -> Vec<WireEvent> {
    log.records()
        .iter()
        .filter_map(|r| match r.record {
            Record::Event(e) => Some(WireEvent {
                tick: r.tick,
                kind: e.kind,
                aux: Some(e.aux),
            }),
            Record::State(_) => None,
        })
        .collect()
}

/// Events that did not arrive as the device logged them: position-wise
/// mismatches, extra events, and missing events beyond the `in_flight`
/// frames the device's ARQ still holds unacknowledged when the session
/// closes (the only events allowed to be outstanding, and only at the
/// tail of the log).
pub fn event_failures(expected: &[WireEvent], got: &[WireEvent], in_flight: u64) -> u64 {
    let mismatched = expected
        .iter()
        .zip(got)
        .filter(|(e, g)| !matches(e, g))
        .count() as u64;
    let missing = expected.len().saturating_sub(got.len()) as u64;
    let extra = got.len().saturating_sub(expected.len()) as u64;
    mismatched + extra + missing.saturating_sub(in_flight)
}

fn matches(e: &WireEvent, g: &WireEvent) -> bool {
    e.tick == g.tick && e.kind == g.kind && e.aux.is_none_or(|a| Some(a) == g.aux)
}

/// The outcome of one session.
#[derive(Debug, Clone, Default)]
pub struct SessionResult {
    pub sim_s: f64,
    pub host_s: f64,
    /// The device's event log, as the host should see it.
    pub expected: Vec<WireEvent>,
    /// The event records the host logged.
    pub got: Vec<WireEvent>,
    /// Data frames the device's ARQ still held unacknowledged at the end.
    pub in_flight: u64,
    pub event_failures: u64,
    pub records_ok: u64,
    pub records_bad: u64,
    pub tx: LinkQuality,
    pub rx: LinkQuality,
    /// Data frames the device encoded and handed to its radio.
    pub device_frames: u64,
    /// Ack frames the host encoded and handed to the reverse radio.
    pub host_frames: u64,
    /// Radio bytes the host decoded.
    pub host_bytes: u64,
    /// Frames the host decoded with a valid CRC.
    pub host_frames_ok: u64,
}

/// Inputs recorded from a session for the isolation timings.
#[derive(Debug, Default)]
pub struct Capture {
    pub air: Vec<u8>,
    pub distances: Vec<f64>,
}

/// Runs one session on `parts` (built by `script`). `epoch_ns`, when
/// given, records each epoch's host time; `capture`, when given, records
/// the session's inputs for the isolation timings.
pub fn run_session(
    script: &Script,
    parts: Parts,
    tracer: &mut Tracer,
    spans: &Spans,
    mut epoch_ns: Option<&mut Histogram>,
    mut capture: Option<&mut Capture>,
) -> SessionResult {
    let (mut dev, mut decoder, mut log) = parts;
    let tick_us = dev.firmware().tick_period().as_micros();
    let mut expected: Vec<WireEvent> = Vec::new();
    let mut air: Vec<u8> = Vec::new();
    let mut host_bytes = 0u64;
    let start = Instant::now();
    for epoch in 0..EPOCHS + DRAIN_EPOCHS {
        let t0 = Instant::now();
        let active = epoch < EPOCHS;
        if active {
            let d = script.distance_at(epoch);
            dev.set_distance(d);
            if let Some(c) = capture.as_deref_mut() {
                c.distances.push(d);
            }
        }
        tracer.enter(spans.run_for_ms);
        dev.run_for_ms(EPOCH_MS)
            .expect("battery sized for the script");
        tracer.exit();
        if active && epoch % script.select_every == script.select_every / 2 {
            tracer.enter(spans.click_select);
            dev.click_select().expect("battery sized for the script");
            tracer.exit();
        }
        if active && epoch % script.back_every == script.back_every - 1 {
            tracer.enter(spans.click_back);
            dev.click_back().expect("battery sized for the script");
            tracer.exit();
        }
        tracer.enter(spans.poll_events);
        dev.poll_events(&mut |e: &TimedEvent| expected.extend(expected_wire(e, tick_us)));
        tracer.exit();
        tracer.enter(spans.poll_telemetry);
        air.clear();
        dev.poll_telemetry(&mut |t: &Telemetry| air.extend_from_slice(&t.bytes));
        tracer.exit();
        host_bytes += air.len() as u64;
        if let Some(c) = capture.as_deref_mut() {
            c.air.extend_from_slice(&air);
        }
        tracer.enter(spans.push_bytes_with);
        decoder.push_bytes_with(&air, |rec| {
            tracer.enter(spans.ingest);
            log.ingest(rec);
            tracer.exit();
        });
        tracer.exit();
        tracer.enter(spans.host_send);
        if let Some(ack) = decoder.ack_payload() {
            dev.host_send(&ack);
        }
        tracer.exit();
        if let Some(h) = epoch_ns.as_deref_mut() {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
    let host_s = start.elapsed().as_secs_f64();
    let got = logged_events(&log);
    let in_flight = dev.firmware().arq_in_flight().unwrap_or(0) as u64;
    let failures = event_failures(&expected, &got, in_flight);
    if decoder.records_bad() > 0 {
        eprintln!(
            "session (device seed {}, lossy {}): {} CRC-valid frames failed to parse",
            script.device_seed,
            script.lossy,
            decoder.records_bad()
        );
    }
    if failures > 0 {
        let first = expected.iter().zip(&got).position(|(e, g)| !matches(e, g));
        eprintln!(
            "session (device seed {}, lossy {}): {failures} event failures; {} logged, {} delivered, \
             {in_flight} frames in flight; first mismatch at {first:?}: {:?} vs {:?}",
            script.device_seed,
            script.lossy,
            expected.len(),
            got.len(),
            first.map(|i| expected[i]),
            first.map(|i| got[i]),
        );
    }
    SessionResult {
        sim_s: dev.now().as_secs_f64(),
        host_s,
        expected,
        got,
        in_flight,
        event_failures: failures,
        records_ok: decoder.records_ok(),
        records_bad: decoder.records_bad(),
        tx: dev.firmware().arq_quality().unwrap_or_default(),
        rx: decoder.arq_quality().unwrap_or_default(),
        device_frames: dev.board().frames_sent(),
        host_frames: dev.board().host_frames_sent(),
        host_bytes,
        host_frames_ok: decoder.link_frames_ok(),
    }
}
