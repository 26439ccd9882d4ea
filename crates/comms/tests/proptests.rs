//! Property tests for the communication substrate.

use std::sync::Arc;

use hetgmp_comms::{AllReduceGroup, TrafficClass, TrafficLedger};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_equals_serial_sum(
        vectors in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 8..=8),
            2..5
        )
    ) {
        let n = vectors.len();
        let expected: Vec<f32> = (0..8)
            .map(|i| vectors.iter().map(|v| v[i]).sum())
            .collect();
        let group = Arc::new(AllReduceGroup::new(n));
        let handles: Vec<_> = vectors
            .into_iter()
            .map(|mut v| {
                let group = Arc::clone(&group);
                std::thread::spawn(move || {
                    group.allreduce_sum(&mut v);
                    v
                })
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            for (g, e) in got.iter().zip(&expected) {
                prop_assert!((g - e).abs() < 1e-3, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn allreduce_max_equals_serial_max(
        values in prop::collection::vec(-100.0f32..100.0, 2..6)
    ) {
        let n = values.len();
        let expected = values.iter().cloned().fold(f32::MIN, f32::max);
        let group = Arc::new(AllReduceGroup::new(n));
        let handles: Vec<_> = values
            .into_iter()
            .map(|x| {
                let group = Arc::clone(&group);
                std::thread::spawn(move || {
                    let mut v = [x];
                    group.allreduce_max(&mut v);
                    v[0]
                })
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.join().unwrap(), expected);
        }
    }

    #[test]
    fn ledger_totals_add_up(
        records in prop::collection::vec((0usize..4, 0u8..3, 0u64..1000), 0..60)
    ) {
        let ledger = TrafficLedger::new(4);
        let mut expected = [0u64; 3];
        for &(w, c, bytes) in &records {
            let class = match c {
                0 => TrafficClass::EmbedData,
                1 => TrafficClass::KeysClocks,
                _ => TrafficClass::AllReduce,
            };
            ledger.record(w, class, bytes, 1);
            expected[c as usize] += bytes;
        }
        prop_assert_eq!(ledger.total_bytes(TrafficClass::EmbedData), expected[0]);
        prop_assert_eq!(ledger.total_bytes(TrafficClass::KeysClocks), expected[1]);
        prop_assert_eq!(ledger.total_bytes(TrafficClass::AllReduce), expected[2]);
        prop_assert_eq!(ledger.grand_total_bytes(), expected.iter().sum::<u64>());
    }

    #[test]
    fn quant_round_trip_error_bounded(
        row in prop::collection::vec(-10.0f32..10.0, 1..64)
    ) {
        use hetgmp_comms::SyncFormat;
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for format in SyncFormat::ALL {
            let mut v = row.clone();
            format.transport(&mut v);
            // Per-format worst-case absolute error on this row.
            let bound = match format {
                // Identity.
                SyncFormat::F32 => 0.0,
                // Half a quantization step.
                SyncFormat::Int8 => max_abs / 127.0 / 2.0 + 1e-6,
            };
            for (a, b) in v.iter().zip(row.iter()) {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "{format}: |{a} - {b}| > {bound}"
                );
            }
            // Determinism: a second transport of the same input is
            // bit-identical, and transporting f32 data is a fixed point.
            let mut again = row.clone();
            format.transport(&mut again);
            let mut twice = v.clone();
            format.transport(&mut twice);
            for ((a, b), c) in v.iter().zip(again.iter()).zip(twice.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
                if format.is_lossless() {
                    // int8 re-transport may re-derive a different scale.
                    prop_assert_eq!(a.to_bits(), c.to_bits());
                }
            }
        }
    }
}
