//! The session registry: one shard's exclusive slice of the fleet.
//!
//! This module is the only place in the crate allowed to construct a
//! raw [`StreamDecoder`] (enforced by the `raw-decoder` lint rule) —
//! a session that is not in a shard's books is a session whose memory
//! and counters nobody bounds.

use std::collections::BTreeMap;

use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_hw::arq::LinkQuality;

/// Online per-shard aggregate: everything the fleet report needs, with
/// memory independent of how many frames passed through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches accepted into the queue.
    pub batches_in: u64,
    /// Radio bytes accepted into the queue.
    pub bytes_in: u64,
    /// Frames that reached record parsing or failed the link-layer CRC:
    /// `records + records_bad + crc_failures`. CRC-valid frames the ARQ
    /// receiver drops (duplicates, counted in `link.duplicates`) or
    /// still holds parked when a session closes are not included, so
    /// this is not the number of frames that arrived.
    pub frames_in: u64,
    /// Records parsed successfully, across live and evicted sessions.
    pub records: u64,
    /// Records that failed to parse.
    pub records_bad: u64,
    /// Frames rejected by the link-layer CRC.
    pub crc_failures: u64,
    /// Interaction-event records seen by the streaming sink.
    pub events: u64,
    /// State-snapshot records seen by the streaming sink.
    pub states: u64,
    /// Batches refused at the high-water mark. Never silent: the offer
    /// that sheds returns `false` *and* the count is permanent.
    pub shed_batches: u64,
    /// Radio bytes refused at the high-water mark.
    pub shed_bytes: u64,
    /// Sessions opened (a device evicted and heard from again opens a
    /// new one).
    pub sessions_opened: u64,
    /// Sessions evicted to stay within the capacity bound.
    pub evicted: u64,
    /// Re-opened sessions whose receiver adopted a mid-stream sequence
    /// number instead of stalling on the zero-expectation.
    pub resyncs: u64,
    /// Most live sessions held at once.
    pub peak_sessions: u64,
    /// Merged receive-side ARQ counters, across live and evicted
    /// sessions.
    pub link: LinkQuality,
}

impl ShardStats {
    /// Folds another shard's books into this one (for fleet totals).
    pub fn merge(&mut self, other: &ShardStats) {
        self.batches_in += other.batches_in;
        self.bytes_in += other.bytes_in;
        self.frames_in += other.frames_in;
        self.records += other.records;
        self.records_bad += other.records_bad;
        self.crc_failures += other.crc_failures;
        self.events += other.events;
        self.states += other.states;
        self.shed_batches += other.shed_batches;
        self.shed_bytes += other.shed_bytes;
        self.sessions_opened += other.sessions_opened;
        self.evicted += other.evicted;
        self.resyncs += other.resyncs;
        self.peak_sessions = self.peak_sessions.max(other.peak_sessions);
        self.link.merge(&other.link);
    }
}

/// `prev`/`next` value of a slot at an end of the recency list.
const NIL: usize = usize::MAX;

/// One slab slot: a live session's device and decoder, threaded into
/// the shard's recency list.
#[derive(Debug)]
struct Slot {
    device: u64,
    decoder: StreamDecoder,
    /// Next less recently touched slot, or [`NIL`] at the head.
    prev: usize,
    /// Next more recently touched slot, or [`NIL`] at the tail.
    next: usize,
}

/// One shard: exclusive owner of the sessions its devices hash to.
///
/// Live sessions sit in a slab of slots that an intrusive doubly linked
/// list orders by last touch, least recent at `head`. A touch relinks
/// the slot at `tail` and eviction takes `head`, both O(1) after the
/// device lookup; the evicted slot is reused for the session being
/// opened, so the slab never outgrows `capacity`. Queued batches share
/// one byte arena that keeps its capacity across rounds.
///
/// All mutation happens through [`Shard::enqueue`] (producer side) and
/// [`Shard::process_queue`] (worker side); the service guarantees the
/// two never interleave within a round, and that exactly one worker
/// drains a given shard — which is what makes every counter here
/// deterministic at any `--jobs`.
#[derive(Debug)]
pub(crate) struct Shard {
    slots: Vec<Slot>,
    /// Device → its slot in `slots`.
    index: BTreeMap<u64, usize>,
    /// Least recently touched slot (the next victim), or [`NIL`].
    head: usize,
    /// Most recently touched slot, or [`NIL`].
    tail: usize,
    /// Queued batches' bytes, back to back.
    arena: Vec<u8>,
    /// Queued batches in FIFO order: device and end offset in `arena`.
    queue: Vec<(u64, usize)>,
    stats: ShardStats,
    capacity: usize,
}

impl Shard {
    pub(crate) fn new(capacity: usize) -> Self {
        Shard {
            slots: Vec::new(),
            index: BTreeMap::new(),
            head: NIL,
            tail: NIL,
            arena: Vec::new(),
            queue: Vec::new(),
            stats: ShardStats::default(),
            capacity,
        }
    }

    /// Accepts a chunk of one device's radio stream into the queue, or
    /// sheds it at the high-water mark. Returns whether it was accepted.
    pub(crate) fn enqueue(&mut self, device: u64, bytes: &[u8], high_water: usize) -> bool {
        if self.queue.len() >= high_water {
            self.stats.shed_batches += 1;
            self.stats.shed_bytes += bytes.len() as u64;
            return false;
        }
        self.stats.batches_in += 1;
        self.stats.bytes_in += bytes.len() as u64;
        self.arena.extend_from_slice(bytes);
        self.queue.push((device, self.arena.len()));
        true
    }

    /// Drains the queue in FIFO order through the owning sessions. The
    /// queue and arena are emptied but keep their capacity.
    pub(crate) fn process_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        let mut start = 0;
        for &(device, end) in &queue {
            let slot = self.touch(device);
            let Some(Slot { decoder, .. }) = self.slots.get_mut(slot) else {
                continue; // unreachable: touch returns a live slot
            };
            let bytes = self.arena.get(start..end).unwrap_or_default();
            start = end;
            let was_resynced = decoder.arq_resynced();
            let (events, states) = (&mut self.stats.events, &mut self.stats.states);
            decoder.push_bytes_with(bytes, |rec| match rec {
                Record::Event(_) => *events += 1,
                Record::State(_) => *states += 1,
            });
            if decoder.arq_resynced() == Some(true) && was_resynced == Some(false) {
                self.stats.resyncs += 1;
            }
        }
        queue.clear();
        self.queue = queue;
        self.arena.clear();
    }

    /// Returns the slot of `device`'s session, now the most recently
    /// touched. A device without a session opens one; at capacity it
    /// takes over the least recently touched session's slot, whose
    /// counters are folded into the aggregate first.
    fn touch(&mut self, device: u64) -> usize {
        if let Some(&slot) = self.index.get(&device) {
            self.unlink(slot);
            self.push_tail(slot);
            return slot;
        }
        self.stats.sessions_opened += 1;
        // No pragma needed: the raw-decoder rule exempts this file —
        // the shard registry IS the sanctioned construction site.
        let decoder = StreamDecoder::with_arq_resync();
        let full = self.index.len() >= self.capacity;
        let slot = match self.slots.get_mut(self.head) {
            // At capacity the least recently touched session makes way
            // and its slot is reused.
            Some(victim) if full => {
                self.index.remove(&victim.device);
                victim.device = device;
                let retired = std::mem::replace(&mut victim.decoder, decoder);
                self.stats.evicted += 1;
                Self::fold_decoder(&mut self.stats, &retired);
                let slot = self.head;
                self.unlink(slot);
                slot
            }
            _ => {
                self.slots.push(Slot {
                    device,
                    decoder,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.index.insert(device, slot);
        self.push_tail(slot);
        let live = self.index.len() as u64;
        self.stats.peak_sessions = self.stats.peak_sessions.max(live);
        slot
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = match self.slots.get(slot) {
            Some(s) => (s.prev, s.next),
            None => return,
        };
        match self.slots.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links `slot` in as the most recently touched.
    fn push_tail(&mut self, slot: usize) {
        let old_tail = self.tail;
        if let Some(s) = self.slots.get_mut(slot) {
            s.prev = old_tail;
            s.next = NIL;
        }
        match self.slots.get_mut(old_tail) {
            Some(t) => t.next = slot,
            None => self.head = slot,
        }
        self.tail = slot;
    }

    /// Streams a retiring decoder's counters into the aggregate.
    fn fold_decoder(stats: &mut ShardStats, decoder: &StreamDecoder) {
        stats.records += decoder.records_ok();
        stats.records_bad += decoder.records_bad();
        stats.crc_failures += decoder.crc_failures();
        stats.frames_in += decoder.records_ok() + decoder.records_bad() + decoder.crc_failures();
        if let Some(q) = decoder.arq_quality() {
            stats.link.merge(&q);
        }
    }

    /// Closes the books: folds every live session into the aggregate
    /// (without counting them as evictions) and returns the final
    /// stats. The shard is drained afterwards.
    pub(crate) fn finish(&mut self) -> ShardStats {
        for slot in self.slots.drain(..) {
            Self::fold_decoder(&mut self.stats, &slot.decoder);
        }
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats
    }

    /// Live sessions right now (bounded by `session_capacity`).
    pub(crate) fn live_sessions(&self) -> usize {
        self.index.len()
    }

    /// Batches queued and not yet processed.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distscroll_hw::arq::{ArqClass, ArqTx};
    use distscroll_hw::link::encode_frame;
    use proptest::prelude::*;

    /// A clean in-order ARQ byte stream carrying `n` event records,
    /// continuing an existing transmitter.
    fn stream(tx: &mut ArqTx, n: u8, tick: u64) -> Vec<u8> {
        for i in 0..n {
            tx.enqueue(ArqClass::Event, &[b'E', 0, i, b'B', 0], tick);
        }
        let mut bytes = Vec::new();
        tx.service(tick, |wire| bytes.extend_from_slice(&encode_frame(wire)));
        bytes
    }

    #[test]
    fn high_water_sheds_with_counter() {
        let mut shard = Shard::new(usize::MAX);
        assert!(shard.enqueue(1, &[0xAA; 10], 2));
        assert!(shard.enqueue(1, &[0xAA; 10], 2));
        assert!(!shard.enqueue(1, &[0xAA; 7], 2), "third offer must shed");
        let stats = shard.finish();
        assert_eq!(stats.batches_in, 2);
        assert_eq!(stats.shed_batches, 1);
        assert_eq!(stats.shed_bytes, 7);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_folds_counters() {
        let mut shard = Shard::new(2);
        let mut tx7 = ArqTx::new();
        let mut tx8 = ArqTx::new();
        let mut tx9 = ArqTx::new();
        assert!(shard.enqueue(7, &stream(&mut tx7, 3, 0), usize::MAX));
        assert!(shard.enqueue(8, &stream(&mut tx8, 2, 0), usize::MAX));
        shard.process_queue();
        assert_eq!(shard.live_sessions(), 2);
        // Touch 8 so 7 becomes the LRU victim.
        assert!(shard.enqueue(8, &stream(&mut tx8, 1, 1), usize::MAX));
        assert!(shard.enqueue(9, &stream(&mut tx9, 4, 0), usize::MAX));
        shard.process_queue();
        assert_eq!(shard.live_sessions(), 2, "capacity bound held");
        let stats = shard.finish();
        assert_eq!(stats.evicted, 1, "exactly one victim (device 7)");
        assert_eq!(stats.sessions_opened, 3);
        assert_eq!(stats.records, 3 + 2 + 1 + 4, "evicted records folded in");
        assert_eq!(stats.events, 10);
        assert_eq!(stats.link.duplicates, 0);
    }

    #[test]
    fn finish_is_not_an_eviction() {
        let mut shard = Shard::new(usize::MAX);
        let mut tx = ArqTx::new();
        assert!(shard.enqueue(1, &stream(&mut tx, 5, 0), usize::MAX));
        shard.process_queue();
        let stats = shard.finish();
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.records, 5);
        assert_eq!(stats.frames_in, 5);
        assert_eq!(stats.peak_sessions, 1);
    }

    /// The reference session table: the linear-scan LRU the slab
    /// replaced. Every session carries its last-touch stamp, and
    /// eviction scans all live sessions for the oldest one.
    struct ScanShard {
        sessions: BTreeMap<u64, (StreamDecoder, u64)>,
        queue: Vec<(u64, Vec<u8>)>,
        stats: ShardStats,
        touch: u64,
        capacity: usize,
    }

    impl ScanShard {
        fn new(capacity: usize) -> Self {
            ScanShard {
                sessions: BTreeMap::new(),
                queue: Vec::new(),
                stats: ShardStats::default(),
                touch: 0,
                capacity,
            }
        }

        fn enqueue(&mut self, device: u64, bytes: &[u8], high_water: usize) -> bool {
            if self.queue.len() >= high_water {
                self.stats.shed_batches += 1;
                self.stats.shed_bytes += bytes.len() as u64;
                return false;
            }
            self.stats.batches_in += 1;
            self.stats.bytes_in += bytes.len() as u64;
            self.queue.push((device, bytes.to_vec()));
            true
        }

        fn process_queue(&mut self) {
            for (device, bytes) in std::mem::take(&mut self.queue) {
                self.touch += 1;
                if !self.sessions.contains_key(&device) {
                    if self.sessions.len() >= self.capacity {
                        let victim = self
                            .sessions
                            .iter()
                            .min_by_key(|(device, (_, last_touch))| (*last_touch, **device))
                            .map(|(device, _)| *device);
                        if let Some((decoder, _)) = victim.and_then(|v| self.sessions.remove(&v)) {
                            self.stats.evicted += 1;
                            Shard::fold_decoder(&mut self.stats, &decoder);
                        }
                    }
                    self.stats.sessions_opened += 1;
                    self.sessions
                        .insert(device, (StreamDecoder::with_arq_resync(), self.touch));
                    let live = self.sessions.len() as u64;
                    self.stats.peak_sessions = self.stats.peak_sessions.max(live);
                }
                let (decoder, last_touch) = self.sessions.get_mut(&device).unwrap();
                *last_touch = self.touch;
                let was_resynced = decoder.arq_resynced();
                let (events, states) = (&mut self.stats.events, &mut self.stats.states);
                decoder.push_bytes_with(&bytes, |rec| match rec {
                    Record::Event(_) => *events += 1,
                    Record::State(_) => *states += 1,
                });
                if decoder.arq_resynced() == Some(true) && was_resynced == Some(false) {
                    self.stats.resyncs += 1;
                }
            }
        }

        /// Live devices, least recently touched first.
        fn recency(&self) -> Vec<u64> {
            let mut live: Vec<(u64, u64)> =
                self.sessions.iter().map(|(d, (_, t))| (*t, *d)).collect();
            live.sort_unstable();
            live.into_iter().map(|(_, d)| d).collect()
        }

        fn finish(&mut self) -> ShardStats {
            for (decoder, _) in std::mem::take(&mut self.sessions).values() {
                Shard::fold_decoder(&mut self.stats, decoder);
            }
            self.stats
        }
    }

    /// The slab's live devices walked from `head` to `tail`, checking
    /// the back links on the way.
    fn recency(shard: &Shard) -> Vec<u64> {
        let mut order = Vec::new();
        let (mut at, mut prev) = (shard.head, NIL);
        while at != NIL {
            let slot = &shard.slots[at];
            assert_eq!(slot.prev, prev, "back link of slot {at}");
            assert_eq!(
                shard.index.get(&slot.device),
                Some(&at),
                "index of slot {at}"
            );
            order.push(slot.device);
            (prev, at) = (at, slot.next);
        }
        assert_eq!(shard.tail, prev, "tail");
        assert_eq!(
            order.len(),
            shard.index.len(),
            "every indexed slot is linked"
        );
        order
    }

    /// The next `n` records of `tx`'s stream as radio bytes, acked at
    /// once so the transmitter never retransmits.
    fn acked_chunk(tx: &mut ArqTx, n: u8) -> Vec<u8> {
        let mut last = None;
        for i in 0..n {
            last = tx
                .enqueue(ArqClass::Event, &[b'E', 0, i, b'B', 0], 0)
                .or(last);
        }
        let mut bytes = Vec::new();
        tx.service(0, |wire| bytes.extend_from_slice(&encode_frame(wire)));
        if let Some(seq) = last {
            tx.on_ack(seq, 0);
        }
        bytes
    }

    // The slab and the scan evict the same victims in the same order
    // and keep identical books, whatever the schedule. Each offer is
    // (device, records, fate): fate 4 loses the chunk on the air (the
    // next one arrives after a gap), fate 5 flips a byte (a CRC
    // failure), anything else arrives clean.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn slab_matches_the_linear_scan_reference(
            capacity in 1usize..9,
            high_water in 1usize..20,
            rounds in collection::vec(collection::vec((0u64..32, 0u8..4, 0u8..6), 0..16), 1..24),
        ) {
            let mut shard = Shard::new(capacity);
            let mut reference = ScanShard::new(capacity);
            let mut txs: Vec<ArqTx> = (0..32).map(|_| ArqTx::new()).collect();
            for offers in &rounds {
                for &(device, n, fate) in offers {
                    let mut bytes = acked_chunk(&mut txs[device as usize], n);
                    match fate {
                        4 => continue,
                        5 => {
                            if let Some(b) = bytes.last_mut() {
                                *b ^= 0x5a;
                            }
                        }
                        _ => {}
                    }
                    prop_assert_eq!(
                        shard.enqueue(device, &bytes, high_water),
                        reference.enqueue(device, &bytes, high_water)
                    );
                }
                shard.process_queue();
                reference.process_queue();
                prop_assert_eq!(shard.queued(), 0);
                prop_assert!(shard.live_sessions() <= capacity);
                prop_assert_eq!(recency(&shard), reference.recency());
                prop_assert_eq!(shard.stats, reference.stats);
            }
            prop_assert_eq!(shard.finish(), reference.finish());
        }
    }
}
