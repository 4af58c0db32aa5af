//! Input splits: the unit of work handed to one map task.
//!
//! Mirrors Hadoop's `FileInputFormat` with `splitSize == blockSize` — one
//! split per block, annotated with the replica hosts so the scheduler can
//! prefer data-local containers. The paper's map-task count is exactly the
//! number of input splits (§3.3, "the number of map tasks is based on the
//! input splits (i.e., HDFS chunks)").

use crate::namespace::DfsFile;
use crate::topology::NodeId;

/// One input split, processed by one map task.
#[derive(Debug, Clone)]
pub struct InputSplit {
    /// Index within the job's input.
    pub index: usize,
    /// Bytes in the split.
    pub len: u64,
    /// Nodes holding the data (replica hosts of the underlying block).
    pub hosts: Vec<NodeId>,
}

/// Generate one split per block of `file`.
pub fn splits_for_file(file: &DfsFile) -> Vec<InputSplit> {
    file.blocks
        .iter()
        .enumerate()
        .map(|(i, b)| InputSplit {
            index: i,
            len: b.len,
            hosts: b.replicas.clone(),
        })
        .collect()
}

/// Number of splits a file of `len` bytes in blocks of `block_size` yields.
pub fn split_count(len: u64, block_size: u64) -> usize {
    assert!(block_size > 0);
    len.div_ceil(block_size) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::Namespace;
    use crate::topology::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn one_split_per_block() {
        let topo = Topology::single_rack(4);
        let mut ns = Namespace::new(2);
        let mut rng = SmallRng::seed_from_u64(5);
        let f = ns.create_file(&topo, "/in", 1024, 300, None, &mut rng);
        let splits = splits_for_file(f);
        assert_eq!(splits.len(), 4);
        assert_eq!(splits.iter().map(|s| s.len).sum::<u64>(), 1024);
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.hosts.len(), 2);
        }
    }

    #[test]
    fn split_count_math() {
        // The paper's configurations: 1 GB and 5 GB inputs, 128 MB and
        // 64 MB blocks.
        const MB: u64 = 1024 * 1024;
        const GB: u64 = 1024 * MB;
        assert_eq!(split_count(GB, 128 * MB), 8);
        assert_eq!(split_count(5 * GB, 128 * MB), 40);
        assert_eq!(split_count(5 * GB, 64 * MB), 80);
        assert_eq!(split_count(GB + 1, 128 * MB), 9);
        assert_eq!(split_count(0, 128 * MB), 0);
    }
}
