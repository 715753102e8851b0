//! Periodic control-plane output: heartbeats and the catalogue gossip
//! (full `Announce` broadcasts, compact `AnnounceDigest` summaries, and
//! the debounced forced re-announce path), each due date on the agenda.

use marea_protocol::messages::announce_hash;

use super::*;

impl ServiceContainer {
    pub(super) fn emit_periodics(&mut self, now: Micros) {
        if self.agenda.drain_due(Kind::Heartbeat, now) {
            let next = now + self.config.heartbeat_period;
            self.agenda.set(Kind::Heartbeat, next, Key::Id(0));
            let msg = Message::Heartbeat {
                incarnation: self.incarnation,
                uptime_us: now.saturating_since(self.started_at).as_micros(),
                load_permille: self.load_permille(),
                fec_cap: self.config.fec.advertised_cap().wire_tag(),
            };
            self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &msg);
        }
        // A closed debounce window only matters to `request_reannounce`,
        // which reads its due date; here it just leaves the agenda.
        self.agenda.drain_due(Kind::ReannounceWindow, now);
        let ann_due = self.agenda.drain_due(Kind::Announce, now);
        if self.agenda.drain_due(Kind::ReannounceFlush, now) {
            let window = now + self.config.announce_period;
            self.agenda.set(Kind::ReannounceWindow, window, Key::Id(0));
            self.broadcast_announce(now);
        } else if ann_due {
            self.emit_catalogue_periodic(now);
        }
    }

    /// A peer signalled it lacks our catalogue (its `Hello`, typically).
    /// The first trigger re-broadcasts the full catalogue immediately so
    /// discovery converges fast and opens a debounce window of one
    /// announce period; repeats inside the window collapse into a single
    /// re-announce that `emit_periodics` flushes when the window closes —
    /// a burst of `Hello`s cannot flood the control group with
    /// full-catalogue broadcasts.
    pub(super) fn request_reannounce(&mut self, now: Micros) {
        let open_until = self.agenda.due_of(Kind::ReannounceWindow, &Key::Id(0));
        match open_until {
            Some(end) if end > now => self.agenda.arm(Kind::ReannounceFlush, end, Key::Id(0)),
            _ => {
                let window = now + self.config.announce_period;
                self.agenda.set(Kind::ReannounceWindow, window, Key::Id(0));
                self.agenda.disarm(Kind::ReannounceFlush, &Key::Id(0));
                self.broadcast_announce(now);
            }
        }
    }

    /// The periodic announce slot: the full catalogue when it changed
    /// since the last broadcast, otherwise the compact `AnnounceDigest`
    /// summary. Receivers whose stored digest disagrees pull the full
    /// catalogue unicast with `AnnounceRequest` (delta-on-mismatch), so
    /// the steady-state control plane carries digests, not catalogues.
    fn emit_catalogue_periodic(&mut self, now: Micros) {
        let entries = self.announce_entries();
        let digest = (announce_hash(self.incarnation, &entries), entries.len() as u32);
        if self.last_announce_digest == Some(digest) {
            let next = now + self.config.announce_period;
            self.agenda.set(Kind::Announce, next, Key::Id(0));
            let msg = Message::AnnounceDigest {
                incarnation: self.incarnation,
                entry_count: digest.1,
                catalogue_hash: digest.0,
            };
            self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &msg);
        } else {
            self.broadcast_announce(now);
        }
    }

    pub(super) fn broadcast_announce(&mut self, now: Micros) {
        let next = now + self.config.announce_period;
        self.agenda.set(Kind::Announce, next, Key::Id(0));
        let entries = self.announce_entries();
        self.directory.apply_announce(self.config.node, &entries, now);
        let digest = (announce_hash(self.incarnation, &entries), entries.len() as u32);
        self.directory.set_catalogue_digest(self.config.node, digest.0, digest.1);
        self.last_announce_digest = Some(digest);
        let msg = Message::Announce { incarnation: self.incarnation, entries };
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &msg);
    }

    pub(super) fn announce_entries(&self) -> Vec<AnnounceEntry> {
        self.slots
            .iter()
            .map(|s| AnnounceEntry {
                service_seq: s.seq,
                name: s.descriptor.name().clone(),
                state: s.state,
                provides: s.descriptor.provides().to_vec(),
            })
            .collect()
    }
}
