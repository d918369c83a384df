//! Data buffers: the sensing data that accumulates at targets and the
//! payload a mule carries back to the sink.
//!
//! The paper's evaluation metric, Data Collection Delay Time (DCDT), is the
//! age of the data sitting at a target when a mule finally picks it up —
//! exactly the time since the previous visit. Modelling an explicit buffer
//! (rather than just visit timestamps) lets the simulator also report how
//! much data a mule is ferrying and when it is delivered to the sink, which
//! the energy-efficiency discussion needs.

use crate::node::NodeId;

/// The sensing-data buffer at a single target.
///
/// Data is generated at a constant rate (bytes per second); a visiting mule
/// drains the buffer completely (the paper assumes collection of a target's
/// data is a fixed-cost operation).
#[derive(Debug, Clone, PartialEq)]
pub struct DataBuffer {
    /// Generation rate in bytes per second.
    rate_bps: f64,
    /// Time the buffer was last drained (simulation seconds).
    last_collected_at: f64,
}

impl DataBuffer {
    /// Creates a buffer that starts empty at time zero.
    pub fn new(rate_bps: f64) -> Self {
        DataBuffer {
            rate_bps: rate_bps.max(0.0),
            last_collected_at: 0.0,
        }
    }

    /// Bytes currently waiting at the target at simulation time `now`.
    pub fn pending_bytes(&self, now: f64) -> f64 {
        (now - self.last_collected_at).max(0.0) * self.rate_bps
    }

    /// Age of the oldest byte in the buffer at time `now` — this is the
    /// data-collection delay the paper plots.
    pub fn data_age(&self, now: f64) -> f64 {
        (now - self.last_collected_at).max(0.0)
    }

    /// Drains the buffer at time `now`, returning `(bytes, age)` of the
    /// collected batch.
    pub fn collect(&mut self, now: f64) -> (f64, f64) {
        let bytes = self.pending_bytes(now);
        let age = self.data_age(now);
        self.last_collected_at = self.last_collected_at.max(now);
        (bytes, age)
    }

    /// Restarts accumulation at time `now` without crediting any collected
    /// bytes — used when a failed target recovers or a late target comes
    /// online: data "generated" while the target was down never existed, so
    /// it must not appear as pending bytes or inflate the data age. The
    /// buffer clock never moves backwards.
    pub fn restart_at(&mut self, now: f64) {
        self.last_collected_at = self.last_collected_at.max(now);
    }

    /// Time of the most recent collection.
    #[inline]
    pub fn last_collected_at(&self) -> f64 {
        self.last_collected_at
    }
}

/// The payload a mule is carrying: per-target batches awaiting delivery to
/// the sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MulePayload {
    batches: Vec<(NodeId, f64)>,
    delivered_bytes: f64,
}

impl MulePayload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch of `bytes` collected from `target`.
    pub fn load(&mut self, target: NodeId, bytes: f64) {
        self.batches.push((target, bytes));
    }

    /// Bytes currently on board.
    pub fn onboard_bytes(&self) -> f64 {
        self.batches.iter().map(|(_, b)| b).sum()
    }

    /// Delivers everything on board to the sink, returning the delivered
    /// byte count.
    pub fn deliver_all(&mut self) -> f64 {
        let bytes = self.onboard_bytes();
        self.delivered_bytes += bytes;
        self.batches.clear();
        bytes
    }

    /// Total bytes delivered to the sink over the mule's lifetime.
    #[inline]
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_accumulates_at_the_configured_rate() {
        let b = DataBuffer::new(2.0);
        assert_eq!(b.pending_bytes(10.0), 20.0);
        assert_eq!(b.data_age(10.0), 10.0);
    }

    #[test]
    fn negative_rates_are_clamped_to_zero() {
        let b = DataBuffer::new(-5.0);
        assert_eq!(b.pending_bytes(100.0), 0.0);
    }

    #[test]
    fn collect_drains_and_advances_the_clock() {
        let mut b = DataBuffer::new(1.5);
        let (bytes, age) = b.collect(20.0);
        assert_eq!(bytes, 30.0);
        assert_eq!(age, 20.0);
        assert_eq!(b.last_collected_at(), 20.0);
        assert_eq!(b.pending_bytes(20.0), 0.0);
        // Another 10 s later only the newly generated data is pending.
        assert_eq!(b.pending_bytes(30.0), 15.0);
        let (bytes2, age2) = b.collect(30.0);
        assert_eq!(bytes2, 15.0);
        assert_eq!(age2, 10.0);
    }

    #[test]
    fn collection_in_the_past_never_rewinds_the_buffer() {
        let mut b = DataBuffer::new(1.0);
        b.collect(50.0);
        let (bytes, age) = b.collect(10.0);
        assert_eq!(bytes, 0.0);
        assert_eq!(age, 0.0);
        assert_eq!(b.last_collected_at(), 50.0);
    }

    #[test]
    fn restart_discards_downtime_without_crediting_bytes() {
        let mut b = DataBuffer::new(2.0);
        b.restart_at(30.0);
        assert_eq!(b.pending_bytes(30.0), 0.0);
        assert_eq!(b.data_age(40.0), 10.0, "age counts from the restart");
        // Restarting in the past never rewinds the clock.
        b.restart_at(5.0);
        assert_eq!(b.last_collected_at(), 30.0);
    }

    #[test]
    fn payload_tracks_onboard_and_delivered_bytes() {
        let mut p = MulePayload::new();
        assert_eq!(p.onboard_bytes(), 0.0);
        p.load(NodeId(1), 100.0);
        p.load(NodeId(2), 50.0);
        assert_eq!(p.onboard_bytes(), 150.0);
        let delivered = p.deliver_all();
        assert_eq!(delivered, 150.0);
        assert_eq!(p.onboard_bytes(), 0.0);
        assert_eq!(p.delivered_bytes(), 150.0);
        // Delivering with nothing on board delivers nothing.
        assert_eq!(p.deliver_all(), 0.0);
        assert_eq!(p.delivered_bytes(), 150.0);
    }
}
