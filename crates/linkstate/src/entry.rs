//! The 3-byte link-state entry: latency, liveness and loss.

use serde::{Deserialize, Serialize};

/// Sentinel cost of an unusable link (dead or unknown). A path cost is
/// integer milliseconds in a `u32`: the wire carries latencies as
/// `u16`, so any real path of two legs is below 2¹⁷ and the all-ones
/// value can never be produced by addition — it compares strictly
/// greater than every finite cost. Code that sums costs checks the legs
/// against the sentinel first.
pub const INFINITE_COST: u32 = u32::MAX;

/// One entry of a link-state row: what the origin node currently believes
/// about its direct link to one destination.
///
/// On the wire this is exactly the paper's 3 bytes: "two bytes for latency
/// (in milliseconds) and one byte for liveness and loss" (section 5). The
/// liveness byte packs an alive bit (bit 7) and the loss rate in half-percent
/// units (bits 0–6, saturating at 63.5 %).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEntry {
    /// Smoothed RTT to the destination in milliseconds.
    pub latency_ms: u16,
    /// Is the link currently considered alive (fewer than 5 consecutive
    /// failed probes)?
    pub alive: bool,
    /// Estimated loss rate, in [0, 1]. Quantized on the wire.
    pub loss: f32,
}

impl LinkEntry {
    /// Wire size of one entry.
    pub const WIRE_SIZE: usize = 3;
    /// Latency value used on the wire for dead/unknown links.
    pub const DEAD_LATENCY: u16 = u16::MAX;

    /// An entry for a link that has never been measured / is down.
    #[must_use]
    pub fn dead() -> Self {
        LinkEntry {
            latency_ms: Self::DEAD_LATENCY,
            alive: false,
            loss: 1.0,
        }
    }

    /// A live entry with the given latency and loss.
    #[must_use]
    pub fn live(latency_ms: u16, loss: f32) -> Self {
        LinkEntry {
            latency_ms,
            alive: true,
            loss: loss.clamp(0.0, 1.0),
        }
    }

    /// The routing cost of this link: its latency in whole milliseconds
    /// when alive, [`INFINITE_COST`] otherwise.
    #[must_use]
    pub fn cost(&self) -> u32 {
        if self.alive {
            u32::from(self.latency_ms)
        } else {
            INFINITE_COST
        }
    }

    /// The wire liveness byte: the alive flag in bit 7 and the loss
    /// rate in half-percent units in bits 0–6 (saturating at 63.5 %) —
    /// the third byte [`LinkEntry::encode`] emits, and the byte a
    /// frame's liveness lane
    /// ([`LinkStateMsg::liveness_loss`](crate::LinkStateMsg::liveness_loss))
    /// carries verbatim.
    #[must_use]
    pub fn liveness_byte(&self) -> u8 {
        let loss_half_pct = ((self.loss * 200.0).round() as u32).min(127) as u8;
        (u8::from(self.alive) << 7) | loss_half_pct
    }

    /// Pack into the 3-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; 3] {
        let lat = if self.alive {
            self.latency_ms.min(Self::DEAD_LATENCY - 1)
        } else {
            Self::DEAD_LATENCY
        };
        let lat_b = lat.to_be_bytes();
        [lat_b[0], lat_b[1], self.liveness_byte()]
    }

    /// Unpack from the 3-byte wire form: the big-endian latency field
    /// plus the liveness byte. A dead link decodes with `loss = 1.0`
    /// regardless of the quantized field (a dead link loses
    /// everything), keeping encode/decode a semantic round trip.
    #[must_use]
    pub fn decode(bytes: [u8; 3]) -> Self {
        let alive = bytes[2] & 0x80 != 0;
        let loss = if alive {
            f32::from(bytes[2] & 0x7F) / 200.0
        } else {
            1.0
        };
        LinkEntry {
            latency_ms: u16::from_be_bytes([bytes[0], bytes[1]]),
            alive,
            loss,
        }
    }

    /// Quantize an RTT measured in (possibly fractional) milliseconds to
    /// the wire's integer resolution, saturating below the dead sentinel.
    #[must_use]
    pub fn quantize_latency(rtt_ms: f64) -> u16 {
        if !rtt_ms.is_finite() || rtt_ms < 0.0 {
            return Self::DEAD_LATENCY;
        }
        (rtt_ms.round() as u64).min(u64::from(Self::DEAD_LATENCY - 1)) as u16
    }
}

impl Default for LinkEntry {
    fn default() -> Self {
        Self::dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_live_entry() {
        let e = LinkEntry::live(182, 0.035);
        let d = LinkEntry::decode(e.encode());
        assert_eq!(d.latency_ms, 182);
        assert!(d.alive);
        assert!((d.loss - 0.035).abs() < 0.005, "loss {}", d.loss);
    }

    #[test]
    fn roundtrip_dead_entry() {
        let d = LinkEntry::decode(LinkEntry::dead().encode());
        assert!(!d.alive);
        assert_eq!(d.latency_ms, LinkEntry::DEAD_LATENCY);
        assert_eq!(d.cost(), INFINITE_COST);
    }

    #[test]
    fn cost_semantics() {
        assert_eq!(LinkEntry::live(250, 0.0).cost(), 250);
        assert_eq!(LinkEntry::dead().cost(), INFINITE_COST);
        let mut e = LinkEntry::live(10, 0.0);
        e.alive = false;
        assert_eq!(e.cost(), INFINITE_COST);
    }

    #[test]
    fn loss_saturates_at_wire_max() {
        let e = LinkEntry::live(10, 0.9);
        let d = LinkEntry::decode(e.encode());
        assert!((d.loss - 0.635).abs() < 1e-6, "saturated loss {}", d.loss);
    }

    #[test]
    fn live_latency_never_collides_with_dead_sentinel() {
        let e = LinkEntry::live(u16::MAX, 0.0);
        let d = LinkEntry::decode(e.encode());
        assert!(d.alive);
        assert_eq!(d.latency_ms, u16::MAX - 1);
    }

    #[test]
    fn quantize_latency_rounds_and_saturates() {
        assert_eq!(LinkEntry::quantize_latency(12.4), 12);
        assert_eq!(LinkEntry::quantize_latency(12.6), 13);
        assert_eq!(
            LinkEntry::quantize_latency(1e9),
            LinkEntry::DEAD_LATENCY - 1
        );
        assert_eq!(
            LinkEntry::quantize_latency(f64::INFINITY),
            LinkEntry::DEAD_LATENCY
        );
        assert_eq!(LinkEntry::quantize_latency(-1.0), LinkEntry::DEAD_LATENCY);
        assert_eq!(
            LinkEntry::quantize_latency(f64::NAN),
            LinkEntry::DEAD_LATENCY
        );
    }

    #[test]
    fn wire_size_is_three_bytes() {
        assert_eq!(LinkEntry::live(1, 0.0).encode().len(), LinkEntry::WIRE_SIZE);
    }

    /// What lets a row be relabelled, and a frame re-encoded, by copying
    /// its latency and liveness bytes instead of decoding and
    /// re-encoding them: every wire entry the lanes can hold — a live
    /// liveness byte over a latency below the dead sentinel — reads back
    /// as the entry that encodes to the same three bytes. Exhaustive
    /// over the liveness byte at the latency edges. What a lane cannot hold is canonicalized, not
    /// preserved: a live byte over the sentinel latency clamps one
    /// below it, and every dead byte reads as the one dead entry.
    #[test]
    fn lane_bytes_survive_decode_then_encode() {
        const DEAD: u16 = LinkEntry::DEAD_LATENCY;
        for liveness in 0..=u8::MAX {
            for latency in [0, 1, DEAD - 1, DEAD] {
                let [hi, lo] = latency.to_be_bytes();
                let wire = [hi, lo, liveness];
                let back = LinkEntry::decode(wire).encode();
                if liveness & 0x80 == 0 {
                    assert_eq!(back, LinkEntry::dead().encode(), "{wire:?}");
                    assert_eq!(back, [0xFF, 0xFF, 0x7F]);
                } else if latency == DEAD {
                    let [hi, lo] = (DEAD - 1).to_be_bytes();
                    assert_eq!(back, [hi, lo, liveness], "{wire:?}");
                } else {
                    assert_eq!(back, wire);
                }
            }
        }
    }

    #[test]
    fn roundtrip_all_loss_quanta() {
        for q in 0u8..=127 {
            let loss = f32::from(q) / 200.0;
            let d = LinkEntry::decode(LinkEntry::live(55, loss).encode());
            assert!((d.loss - loss).abs() < 1e-6);
        }
    }
}
