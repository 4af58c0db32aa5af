//! Property-based tests of block placement and split generation.

use hdfs_sim::{place_replicas, splits_for_file, Namespace, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// Replicas are always distinct nodes, capped by cluster size.
    #[test]
    fn replicas_distinct(
        rack_sizes in prop::collection::vec(1usize..5, 1..4),
        replication in 1usize..5,
        writer in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let topo = Topology::with_racks(&rack_sizes);
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = writer.then_some(hdfs_sim::NodeId(0));
        let replicas = place_replicas(&topo, w, replication, &mut rng);
        prop_assert_eq!(replicas.len(), replication.min(topo.num_nodes()));
        let mut d = replicas.clone();
        d.sort();
        d.dedup();
        prop_assert_eq!(d.len(), replicas.len(), "duplicate replica nodes");
        if let Some(wn) = w {
            prop_assert_eq!(replicas[0], wn, "first replica must be writer-local");
        }
    }

    /// Splits tile the file exactly: one per block, lengths sum to the
    /// file size, every split no longer than the block size.
    #[test]
    fn splits_tile_files(
        len in 1u64..10_000_000,
        block in 1u64..2_000_000,
        nodes in 1usize..6,
        seed in any::<u64>(),
    ) {
        let topo = Topology::single_rack(nodes);
        let mut ns = Namespace::new(3);
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = ns.create_file(&topo, "/f", len, block, None, &mut rng);
        let splits = splits_for_file(f);
        prop_assert_eq!(splits.len() as u64, len.div_ceil(block));
        prop_assert_eq!(splits.iter().map(|s| s.len).sum::<u64>(), len);
        for s in &splits {
            prop_assert!(s.len <= block);
            prop_assert!(!s.hosts.is_empty());
        }
    }
}
