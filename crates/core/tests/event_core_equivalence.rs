//! The jump-to-deadline event core must be invisible in the outputs.
//!
//! The goldens below were produced by the legacy fixed-tick driver,
//! which recounted the display load from the panel RAM at every step;
//! the event core matched it byte for byte (clock, battery bits, menu
//! highlight, display art, event log and telemetry frames) before that
//! driver was retired. A device driven through `tick` must still land on
//! them, and after every tick each panel's O(1) ink cache must equal a
//! full recount of its RAM — the property the legacy driver stood for.

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_hw::board::Telemetry;
use distscroll_hw::display::DisplayRole;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit hash.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn events_digest(events: &[TimedEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    for e in events {
        h = fnv(h, &e.at.as_micros().to_le_bytes());
        h = fnv(h, &[e.event.wire_tag()]);
        match &e.event {
            Event::Highlight { index, label } => {
                h = fnv(h, &(*index as u64).to_le_bytes());
                h = fnv(h, label.as_bytes());
            }
            Event::Activated { path } => {
                for label in path {
                    h = fnv(fnv(h, label.as_bytes()), &[0]);
                }
            }
            Event::EnteredSubmenu { label } => h = fnv(h, label.as_bytes()),
            _ => {}
        }
    }
    h
}

fn telemetry_digest(frames: &[Telemetry]) -> u64 {
    let mut h = FNV_OFFSET;
    for f in frames {
        h = fnv(h, &f.arrival.as_micros().to_le_bytes());
        h = fnv(h, &(f.bytes.len() as u64).to_le_bytes());
        h = fnv(h, &f.bytes);
    }
    h
}

fn art_digest(dev: &DistScrollDevice) -> u64 {
    let h = fnv(FNV_OFFSET, dev.upper_display_art().as_bytes());
    fnv(h, dev.lower_display_art().as_bytes())
}

/// The externally visible state at the end of one script phase:
/// (clock in µs, battery SOC bits, highlighted index, display-art digest).
type PhaseGolden = (u64, u64, usize, u64);

/// What a whole script leaves in the device's outboxes.
struct LogGolden {
    events: usize,
    events_digest: u64,
    frames: usize,
    telemetry_digest: u64,
}

fn device(profile: DeviceProfile, seed: u64) -> DistScrollDevice {
    let mut dev = DistScrollDevice::new(profile, Menu::flat(12), seed);
    dev.set_distance(18.0);
    dev
}

/// One event-core tick, then the ink-cache-vs-recount check on both
/// panels.
fn tick_checked(dev: &mut DistScrollDevice) {
    dev.tick().expect("fresh battery");
    for role in [DisplayRole::Upper, DisplayRole::Lower] {
        let panel = dev.board().display(role);
        assert_eq!(
            panel.lit_pixels(),
            panel.recount_lit_pixels(),
            "{role:?} ink cache diverged from its RAM at {:?}",
            dev.now()
        );
    }
}

fn assert_phase(dev: &DistScrollDevice, phase: usize, want: PhaseGolden) {
    let (now_us, soc_bits, highlighted, art) = want;
    assert_eq!(dev.now().as_micros(), now_us, "clock in phase {phase}");
    assert_eq!(
        dev.board().battery_soc().to_bits(),
        soc_bits,
        "battery SOC in phase {phase}"
    );
    assert_eq!(dev.highlighted(), highlighted, "highlight in phase {phase}");
    assert_eq!(art_digest(dev), art, "display art in phase {phase}");
}

fn assert_logs(dev: &mut DistScrollDevice, want: &LogGolden) {
    let mut events = Vec::new();
    dev.drain_events_into(&mut events);
    assert_eq!(events.len(), want.events, "event count");
    assert_eq!(events_digest(&events), want.events_digest, "event log");
    let mut frames = Vec::new();
    dev.drain_telemetry_into(&mut frames);
    assert_eq!(frames.len(), want.frames, "telemetry frame count");
    assert_eq!(
        telemetry_digest(&frames),
        want.telemetry_digest,
        "telemetry frames"
    );
}

#[test]
fn paper_profile_event_core_matches_the_fixed_tick_goldens() {
    // (distance in cm, select click?, back click?) per 400-tick phase: a
    // sweep across islands and gaps with a few menu interactions.
    let script = [
        (18.0, false, false),
        (9.5, true, false),
        (27.0, false, false),
        (41.0, false, true),
        (6.0, true, false),
        (33.3, false, false),
    ];
    let goldens = [
        (4_000_000, 0x3fef_ff56_afe1_3da0, 5, 0x758e_6e07_ba92_8ebe),
        (8_000_000, 0x3fef_fead_5ff0_4b5f, 9, 0x5e65_f330_b34c_a396),
        (12_000_000, 0x3fef_fe04_014b_2fcd, 1, 0xb661_ddd7_0113_ec12),
        (16_000_000, 0x3fef_fd5a_ba42_e4e3, 0, 0x080f_09a4_8b03_e004),
        (20_000_000, 0x3fef_fcb1_6742_f655, 10, 0xd0e4_fc11_2603_cb56),
        (24_000_000, 0x3fef_fc08_1f86_bfe0, 0, 0x36b0_f897_3332_8aad),
    ];
    let mut dev = device(DeviceProfile::paper(), 20050607);
    for (phase, ((cm, select, back), want)) in script.into_iter().zip(goldens).enumerate() {
        dev.set_distance(cm);
        if select {
            dev.press_select();
        }
        if back {
            dev.press_back();
        }
        for _ in 0..400 {
            tick_checked(&mut dev);
        }
        if select {
            dev.release_select();
        }
        if back {
            dev.release_back();
        }
        assert_phase(&dev, phase, want);
    }
    assert_logs(
        &mut dev,
        &LogGolden {
            events: 33,
            events_digest: 0xd2ea_a4e3_4bd9_ab29,
            frames: 273,
            telemetry_digest: 0xdd14_55db_1771_5a36,
        },
    );
}

#[test]
fn standby_profile_event_core_matches_the_fixed_tick_goldens() {
    let profile = DeviceProfile {
        orientation_standby: true,
        ..DeviceProfile::paper()
    };
    // Long enough phases that the device falls asleep and wakes again,
    // crossing the standby deadline-resync path.
    let script = [(true, 600), (false, 400)];
    let goldens = [
        (6_000_000, 0x3fef_ff7b_4e4e_75bc, 5, 0x0380_d2a2_43ee_83cd),
        (10_000_000, 0x3fef_fed2_3fa8_96d8, 5, 0x758e_6e07_ba92_8ebe),
    ];
    let mut dev = device(profile, 7);
    for (phase, ((resting, ticks), want)) in script.into_iter().zip(goldens).enumerate() {
        dev.set_resting(resting);
        for _ in 0..ticks {
            tick_checked(&mut dev);
        }
        assert_phase(&dev, phase, want);
    }
    assert_logs(
        &mut dev,
        &LogGolden {
            events: 1,
            events_digest: 0x3a60_1485_935f_7ebc,
            frames: 67,
            telemetry_digest: 0x1aac_f8a3_0c0f_cc18,
        },
    );
}

#[test]
fn run_for_ms_covers_exactly_the_requested_span() {
    let mut by_ms = device(DeviceProfile::paper(), 11);
    let mut by_tick = device(DeviceProfile::paper(), 11);
    by_ms.run_for_ms(2_000).expect("fresh battery");
    for _ in 0..200 {
        // paper profile ticks every 10 ms
        by_tick.tick().expect("fresh battery");
    }
    assert_eq!(by_ms.now(), by_tick.now());
    assert_eq!(by_ms.lower_display_art(), by_tick.lower_display_art());
    assert_eq!(by_ms.drain_telemetry(), by_tick.drain_telemetry());
}
