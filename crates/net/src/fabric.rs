//! Named parameters of a datacenter network fabric.
//!
//! [`FabricParams`] describes the network every host shares for migration
//! and DR traffic: per-host NIC capacity, the aggregate backbone capacity,
//! one propagation latency, and MTU chunk framing. It is the
//! orchestrator's network knob (`OrchParams::fabric` in `rvisor-orch`) and
//! the input of [`ClosParams::single_spine`](crate::ClosParams::single_spine),
//! the worst-case single-backbone preset of the one fabric simulator,
//! [`ClosFabric`](crate::ClosFabric). The preset's documentation lists the
//! modelling assumption each field controls.

use serde::{Deserialize, Serialize};

use rvisor_types::{Error, Nanoseconds, Result};

/// Default per-chunk framing overhead: Ethernet (14) + IPv4 (20) + TCP (32,
/// with timestamps) + FCS (4) + preamble/IFG (8 + 12) ≈ 90 bytes per MTU.
pub const DEFAULT_CHUNK_OVERHEAD: u64 = 90;

/// Named, validated parameters of a shared single-backbone fabric (see
/// [`ClosParams::single_spine`](crate::ClosParams::single_spine)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricParams {
    /// Line rate of every host NIC, in bytes per second.
    pub nic_bytes_per_second: u64,
    /// Aggregate bandwidth of the shared backbone, in bytes per second.
    pub backbone_bytes_per_second: u64,
    /// One-way propagation latency between any two endpoints.
    pub latency: Nanoseconds,
    /// Maximum payload bytes per on-wire chunk (the MTU).
    pub mtu: u64,
    /// Framing overhead added to every chunk.
    pub chunk_overhead: u64,
}

impl FabricParams {
    /// A 10 Gbit/s-NIC datacenter with a 40 Gbit/s backbone, 50 µs latency
    /// and jumbo frames.
    pub fn datacenter() -> Self {
        FabricParams {
            nic_bytes_per_second: 1_250_000_000,
            backbone_bytes_per_second: 5_000_000_000,
            latency: Nanoseconds::from_micros(50),
            mtu: 9000,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// A gigabit office LAN: 1 Gbit/s NICs sharing a 1 Gbit/s uplink,
    /// 200 µs latency, standard 1500-byte MTU.
    pub fn office_lan() -> Self {
        FabricParams {
            nic_bytes_per_second: 125_000_000,
            backbone_bytes_per_second: 125_000_000,
            latency: Nanoseconds::from_micros(200),
            mtu: 1500,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// A 100 Mbit/s WAN with 5 ms latency (cross-site DR traffic).
    pub fn wan() -> Self {
        FabricParams {
            nic_bytes_per_second: 12_500_000,
            backbone_bytes_per_second: 12_500_000,
            latency: Nanoseconds::from_millis(5),
            mtu: 1500,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// Validate the parameters: bandwidths and MTU must be non-zero, and the
    /// MTU must exceed the per-chunk overhead (otherwise goodput is zero or
    /// negative and transfer times diverge).
    pub fn validate(&self) -> Result<()> {
        if self.nic_bytes_per_second == 0 {
            return Err(Error::Net("fabric NIC bandwidth must be non-zero".into()));
        }
        if self.backbone_bytes_per_second == 0 {
            return Err(Error::Net(
                "fabric backbone bandwidth must be non-zero".into(),
            ));
        }
        if self.mtu == 0 {
            return Err(Error::Net("fabric MTU must be non-zero".into()));
        }
        if self.chunk_overhead >= self.mtu {
            return Err(Error::Net(format!(
                "chunk overhead ({}) must be smaller than the MTU ({})",
                self.chunk_overhead, self.mtu
            )));
        }
        Ok(())
    }
}

/// Behavioural tests of the single-spine preset: the shared backbone, MTU
/// framing and fair-share striping, on [`ClosFabric`](crate::ClosFabric)
/// built from [`ClosParams::single_spine`](crate::ClosParams::single_spine).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClosFabric, ClosParams};
    use proptest::prelude::*;

    fn flat_params(bps: u64, mtu: u64) -> FabricParams {
        FabricParams {
            nic_bytes_per_second: bps,
            backbone_bytes_per_second: bps,
            latency: Nanoseconds::ZERO,
            mtu,
            chunk_overhead: 100,
        }
    }

    fn single_spine(endpoints: usize, params: FabricParams) -> ClosFabric {
        ClosFabric::new(endpoints, ClosParams::single_spine(params, endpoints)).unwrap()
    }

    #[test]
    fn params_validation_rejects_degenerate_values() {
        assert!(FabricParams::datacenter().validate().is_ok());
        assert!(FabricParams::office_lan().validate().is_ok());
        assert!(FabricParams::wan().validate().is_ok());
        let mut p = FabricParams::datacenter();
        p.nic_bytes_per_second = 0;
        assert!(p.validate().is_err());
        assert!(ClosParams::single_spine(p, 2).validate().is_err());
        let mut p = FabricParams::datacenter();
        p.backbone_bytes_per_second = 0;
        assert!(p.validate().is_err());
        assert!(ClosParams::single_spine(p, 2).validate().is_err());
        let mut p = FabricParams::datacenter();
        p.mtu = 0;
        assert!(p.validate().is_err());
        assert!(ClosParams::single_spine(p, 2).validate().is_err());
        let mut p = FabricParams::datacenter();
        p.chunk_overhead = p.mtu;
        assert!(p.validate().is_err());
        assert!(ClosParams::single_spine(p, 2).validate().is_err());
        let dc = FabricParams::datacenter();
        assert!(ClosFabric::new(1, ClosParams::single_spine(dc, 1)).is_err());
        assert!(ClosFabric::new(0, ClosParams::single_spine(dc, 0)).is_err());
    }

    #[test]
    fn mtu_chunking_taxes_transfers() {
        // 1 MB at 1 MB/s: exactly 1 s of payload plus chunk framing.
        let p = ClosParams::single_spine(flat_params(1_000_000, 1000), 2);
        // 1000 chunks x 100 overhead = 100_000 extra bytes = 0.1 s.
        assert_eq!(p.wire_bytes(1_000_000), 1_100_000);
        assert_eq!(p.local_transfer_time(1_000_000), Nanoseconds(1_100_000_000));
        // Jumbo frames shrink the tax.
        let jumbo = ClosParams::single_spine(flat_params(1_000_000, 9000), 2);
        assert!(jumbo.local_transfer_time(1_000_000) < p.local_transfer_time(1_000_000));
        // Zero payload still needs no chunks.
        assert_eq!(p.wire_bytes(0), 0);
        // 40 GB (44 GB on the wire): the nanosecond numerator overflows 64
        // bits, and the time stays exact.
        assert_eq!(
            p.local_transfer_time(40_000_000_000),
            Nanoseconds(44_000_000_000_000)
        );
    }

    #[test]
    fn shared_backbone_serializes_disjoint_pairs() {
        let mut f = single_spine(4, flat_params(1_000_000, 1_000_000));
        // 0->1 and 2->3 share no NIC, but do share the backbone.
        let a = f.transfer(0, 1, Nanoseconds::ZERO, 500_000).unwrap();
        let b = f.transfer(2, 3, Nanoseconds::ZERO, 500_000).unwrap();
        assert!(b > a, "disjoint pairs must still contend on the backbone");
        assert_eq!(f.transfers(), 2);
        assert_eq!(f.bytes_carried(), 1_000_000);
        assert!(f.wire_bytes_carried() > f.bytes_carried());
        assert_eq!(f.bytes_sent_by(0), 500_000);
        assert_eq!(f.bytes_received_by(3), 500_000);
        // The backbone (the one rack's leaf) carries the occupancy signal.
        assert_eq!(f.free_at(), b);
    }

    #[test]
    fn wider_backbone_still_serializes_nic_sharers() {
        let mut params = flat_params(1_000_000, 1_000_000);
        params.backbone_bytes_per_second = 100_000_000;
        let mut f = single_spine(3, params);
        let a = f.transfer(0, 1, Nanoseconds::ZERO, 500_000).unwrap();
        // Same source NIC: must queue even though the backbone is fast.
        let b = f.transfer(0, 2, Nanoseconds::ZERO, 500_000).unwrap();
        assert!(b > a);
    }

    #[test]
    fn invalid_endpoints_are_rejected() {
        let mut f = single_spine(2, flat_params(1_000_000, 1500));
        assert!(f.transfer(0, 0, Nanoseconds::ZERO, 1).is_err());
        assert!(f.transfer(0, 2, Nanoseconds::ZERO, 1).is_err());
        assert!(f.path_free_at(5, 0).is_err());
        f.transfer(0, 1, Nanoseconds::ZERO, 123).unwrap();
        f.reset();
        assert_eq!(f.bytes_carried(), 0);
        assert_eq!(f.path_free_at(0, 1).unwrap(), Nanoseconds::ZERO);
        assert_eq!(f.free_at(), Nanoseconds::ZERO);
    }

    #[test]
    fn striped_transfer_matches_single_stream_for_one_stripe() {
        let params = FabricParams::office_lan();
        let mut a = single_spine(2, params);
        let mut b = single_spine(2, params);
        let single = a.transfer(0, 1, Nanoseconds::ZERO, 3_000_000).unwrap();
        let striped = b
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[3_000_000])
            .unwrap();
        assert_eq!(single, striped);
        assert_eq!(a.bytes_carried(), b.bytes_carried());
        assert_eq!(a.wire_bytes_carried(), b.wire_bytes_carried());
        assert_eq!(a.transfers(), b.transfers());
    }

    #[test]
    fn striping_pays_per_stream_framing_and_never_beats_one_stream() {
        let params = FabricParams::office_lan();
        let mut one = single_spine(2, params);
        let mut four = single_spine(2, params);
        let total = 4_000_001u64; // deliberately not a multiple of 4 or MTU
        let single = one
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[total])
            .unwrap();
        let split = [total / 4, total / 4, total / 4, total - 3 * (total / 4)];
        let striped = four
            .transfer_striped(0, 1, Nanoseconds::ZERO, &split)
            .unwrap();
        assert!(
            striped >= single,
            "fair-share striping must not beat the aggregate stream"
        );
        // Same payload, more framing on the wire.
        assert_eq!(one.bytes_carried(), four.bytes_carried());
        assert!(four.wire_bytes_carried() >= one.wire_bytes_carried());
        assert_eq!(four.transfers(), 4);
        // The striped burst leaves the same kind of busy marks: later
        // traffic queues behind it.
        let later = four.transfer(0, 1, Nanoseconds::ZERO, 1).unwrap();
        assert!(later > striped.saturating_sub(params.latency));
        // Empty stripes contribute nothing but the call still counts once.
        let mut empty = single_spine(2, params);
        let done = empty
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[0, 0])
            .unwrap();
        assert_eq!(done, params.latency);
        assert!(empty
            .transfer_striped(0, 0, Nanoseconds::ZERO, &[1])
            .is_err());
    }

    proptest! {
        /// Arrival times are monotone along any call sequence on one pair,
        /// and replaying the same sequence reproduces identical times.
        #[test]
        fn transfers_are_monotonic_and_deterministic(
            sizes in proptest::collection::vec(0u64..10_000_000, 1..16)
        ) {
            let run = || {
                let mut f = single_spine(2, FabricParams::office_lan());
                let mut times = Vec::new();
                for &s in &sizes {
                    times.push(f.transfer(0, 1, Nanoseconds::ZERO, s).unwrap());
                }
                times
            };
            let first = run();
            for w in first.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
            prop_assert_eq!(&first, &run());
        }

        /// The fabric is never faster than a bare link of the bottleneck
        /// bandwidth: chunk framing only adds time.
        #[test]
        fn fabric_never_beats_the_bare_link(bytes in 1u64..(1 << 28)) {
            let fp = FabricParams::office_lan();
            let p = ClosParams::single_spine(fp, 2);
            let bare = crate::LinkModel {
                bytes_per_second: p.local_bytes_per_second(),
                latency: fp.latency,
            };
            prop_assert!(p.local_transfer_time(bytes) >= bare.transfer_time(bytes));
            let mut f = ClosFabric::new(2, p).unwrap();
            prop_assert_eq!(f.transfer_time(0, 1, bytes), p.local_transfer_time(bytes));
            prop_assert_eq!(
                f.transfer(0, 1, Nanoseconds::ZERO, bytes).unwrap(),
                p.local_transfer_time(bytes)
            );
        }
    }
}
