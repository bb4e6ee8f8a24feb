//! Device-internal layers timed in isolation, on inputs recorded from a
//! clean session.
//!
//! Each function is timed by [`time_isolated`]: calibrated batches of at
//! least 1 ms, median and MAD over the samples. Multiplied by the op
//! count the traced sessions imply, the figures model where the time
//! inside `core.device.run_for_ms` (and the host decode) goes.

use distscroll_core::mapping::{paper_curve, IslandMap};
use distscroll_host::telemetry::{parse_record, Record, StreamDecoder};
use distscroll_hw::adc::Adc10;
use distscroll_hw::arq::{decode_data, ArqRx, Seq16};
use distscroll_hw::clock::SimInstant;
use distscroll_hw::link::{encode_frame_into, FrameDecoder, RadioChannel};
use distscroll_recognizer::{ClassicChain, ClassicConfig, Recognizer, Segmented, SegmentedConfig};
use distscroll_sensors::environment::Scene;
use distscroll_sensors::gp2d120::{ideal_voltage, Gp2d120};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::session::{lossy_radio, Capture};
use crate::stats::{time_isolated, Isolated};

/// Every isolated layer, in table order.
pub const LAYERS: [&str; 13] = [
    "sensors.gp2d120.measure",
    "hw.adc.sample",
    "recognizer.classic.process",
    "recognizer.segmented.process",
    "core.mapping.lookup",
    "hw.link.encode_frame_into",
    "hw.link.radio_transmit.clean",
    "hw.link.radio_transmit.lossy",
    "hw.link.frame_decode.clean",
    "hw.link.frame_decode.corrupt",
    "hw.arq.rx.on_data",
    "host.telemetry.parse_record",
    "host.telemetry.stream_decoder_new",
];

/// Frame payloads (ARQ data frames) of a captured radio stream.
fn payloads(air: &[u8]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    dec.push_all(air).into_iter().flatten().collect()
}

/// Times every isolated layer on inputs from `clean`, in [`LAYERS`]
/// order.
pub fn isolate(clean: &Capture, map: &IslandMap, seed: u64) -> Vec<Isolated> {
    let mut rng = StdRng::seed_from_u64(seed);
    let distances = &clean.distances;
    assert!(!distances.is_empty() && !clean.air.is_empty());

    let frames = payloads(&clean.air);
    let data: Vec<(Seq16, Vec<u8>)> = frames
        .iter()
        .filter_map(|p| decode_data(p).map(|(s, inner)| (s, inner.to_vec())))
        .collect();
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut rx = ArqRx::new();
    for (seq, inner) in &data {
        rx.on_data(*seq, inner, |r| records.push(r.to_vec()));
    }
    let codes: Vec<u16> = records
        .iter()
        .filter_map(|r| match parse_record(r) {
            Ok(Record::State(s)) => Some(s.code),
            _ => None,
        })
        .collect();
    assert!(
        !codes.is_empty() && !data.is_empty(),
        "captured session carried no state"
    );

    let n = |len: usize, i: u64| (i % len as u64) as usize;
    let mut out = Vec::with_capacity(LAYERS.len());

    let mut sensor = Gp2d120::typical();
    let scenes: Vec<Scene> = distances
        .iter()
        .map(|&d| Scene {
            distance_cm: d,
            ..Scene::lab()
        })
        .collect();
    out.push(time_isolated(|i| {
        sensor.measure(&scenes[n(scenes.len(), i)], &mut rng)
    }));

    let adc = Adc10::with_noise(5.0, 1.5);
    let volts: Vec<f64> = distances.iter().map(|&d| ideal_voltage(d)).collect();
    out.push(time_isolated(|i| {
        adc.sample(volts[n(volts.len(), i)], &mut rng)
    }));

    let mut classic = ClassicChain::new(&ClassicConfig::paper());
    out.push(time_isolated(|i| {
        classic.process(codes[n(codes.len(), i)], i)
    }));
    let mut segmented = Segmented::new(SegmentedConfig {
        curve: paper_curve(),
        near_cm: 4.0,
        far_cm: 30.0,
        tick_ms: 10,
    });
    out.push(time_isolated(|i| {
        segmented.process(codes[n(codes.len(), i)], i)
    }));

    out.push(time_isolated(|i| map.lookup(codes[n(codes.len(), i)])));

    let mut frame = Vec::with_capacity(64);
    out.push(time_isolated(|i| {
        encode_frame_into(&frames[n(frames.len(), i)], &mut frame);
        frame.len()
    }));
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    for p in &frames {
        encode_frame_into(p, &mut frame);
        encoded.push(frame.clone());
    }
    let mut buf = Vec::with_capacity(64);
    for radio in [RadioChannel::clean(), lossy_radio()] {
        out.push(time_isolated(|i| {
            buf.clear();
            buf.extend_from_slice(&encoded[n(encoded.len(), i)]);
            radio.transmit_in_place(&mut buf, SimInstant::BOOT, &mut rng)
        }));
    }

    // The sessions' links carry no bit errors, so the corrupted stream is
    // made here: the captured frames sent again over a 10 % loss, 5e-4
    // bit-error link until it is as long as the capture.
    let corrupting = RadioChannel::lossy(0.1, 5e-4);
    let mut corrupt = Vec::with_capacity(clean.air.len() + 64);
    for f in encoded.iter().cycle() {
        if corrupt.len() >= clean.air.len() {
            break;
        }
        buf.clear();
        buf.extend_from_slice(f);
        if corrupting
            .transmit_in_place(&mut buf, SimInstant::BOOT, &mut rng)
            .is_some()
        {
            corrupt.extend_from_slice(&buf);
        }
    }

    // Frame decode, per byte: the cost of one pushed byte, including the
    // replay of bytes swallowed by a failed CRC.
    for air in [&clean.air, &corrupt] {
        let mut dec = FrameDecoder::new();
        out.push(time_isolated(|i| {
            let mut done = u32::from(dec.push_frame(air[n(air.len(), i)]).is_some());
            while dec.pump().is_some() {
                done += 1;
            }
            done
        }));
    }

    let mut rx = ArqRx::new();
    out.push(time_isolated(|i| {
        let k = n(data.len(), i);
        if k == 0 {
            rx = ArqRx::new();
        }
        let (seq, inner) = &data[k];
        let mut delivered = 0usize;
        rx.on_data(*seq, inner, |r| delivered += r.len());
        delivered
    }));

    out.push(time_isolated(|i| {
        parse_record(&records[n(records.len(), i)]).is_ok()
    }));

    out.push(time_isolated(|_| StreamDecoder::with_arq_resync()));
    out
}
