//! The filesystem namespace: files made of replicated blocks.

use crate::block::{Block, BlockId};
use crate::placement::place_replicas;
use crate::topology::{NodeId, Topology};
use rand::Rng;
use std::collections::HashMap;

/// Metadata of one file.
#[derive(Debug, Clone)]
pub struct DfsFile {
    /// Path-like name, unique in the namespace.
    pub name: String,
    /// Total length in bytes.
    pub len: u64,
    /// Block size used when the file was written.
    pub block_size: u64,
    /// Blocks in order.
    pub blocks: Vec<Block>,
}

/// The NameNode's view of the filesystem.
#[derive(Debug, Clone)]
pub struct Namespace {
    files: HashMap<String, DfsFile>,
    next_block: u64,
    replication: usize,
}

impl Namespace {
    /// Empty namespace with a default replication factor (HDFS default: 3).
    pub fn new(replication: usize) -> Self {
        assert!(replication >= 1);
        Namespace {
            files: HashMap::new(),
            next_block: 0,
            replication,
        }
    }

    /// Write a file of `len` bytes in blocks of `block_size`, choosing
    /// replica locations with [`place_replicas`]. Returns a reference to
    /// the created file. Panics if the name already exists.
    pub fn create_file<R: Rng + ?Sized>(
        &mut self,
        topo: &Topology,
        name: &str,
        len: u64,
        block_size: u64,
        writer: Option<NodeId>,
        rng: &mut R,
    ) -> &DfsFile {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            !self.files.contains_key(name),
            "file already exists: {name}"
        );
        let mut blocks = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let this = remaining.min(block_size);
            let id = BlockId(self.next_block);
            self.next_block += 1;
            let replicas = place_replicas(topo, writer, self.replication, rng);
            blocks.push(Block {
                id,
                len: this,
                replicas,
            });
            remaining -= this;
        }
        // A zero-length file still exists, with no blocks.
        self.files.insert(
            name.to_string(),
            DfsFile {
                name: name.to_string(),
                len,
                block_size,
                blocks,
            },
        );
        &self.files[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn file_blocks_cover_length() {
        let topo = Topology::single_rack(4);
        let mut ns = Namespace::new(3);
        let mut rng = SmallRng::seed_from_u64(7);
        let f = ns.create_file(&topo, "/data/in", 1000, 300, None, &mut rng);
        assert_eq!(f.blocks.len(), 4); // 300+300+300+100
        assert_eq!(f.blocks.iter().map(|b| b.len).sum::<u64>(), 1000);
        assert_eq!(f.blocks.last().unwrap().len, 100);
        for b in &f.blocks {
            assert_eq!(b.replicas.len(), 3);
        }
    }

    #[test]
    fn exact_multiple_has_no_short_block() {
        let topo = Topology::single_rack(3);
        let mut ns = Namespace::new(1);
        let mut rng = SmallRng::seed_from_u64(8);
        let f = ns.create_file(&topo, "/x", 600, 300, None, &mut rng);
        assert_eq!(f.blocks.len(), 2);
        assert!(f.blocks.iter().all(|b| b.len == 300));
    }

    #[test]
    fn zero_length_file() {
        let topo = Topology::single_rack(2);
        let mut ns = Namespace::new(1);
        let mut rng = SmallRng::seed_from_u64(9);
        let f = ns.create_file(&topo, "/empty", 0, 128, None, &mut rng);
        assert!(f.blocks.is_empty());
    }

    #[test]
    fn replica_census() {
        let topo = Topology::single_rack(3);
        let mut ns = Namespace::new(3);
        let mut rng = SmallRng::seed_from_u64(10);
        let f = ns.create_file(&topo, "/a", 900, 300, None, &mut rng);
        // Replication 3 on 3 nodes: every node holds every block.
        for n in topo.nodes() {
            assert!(f.blocks.iter().all(|b| b.is_local_to(n)));
        }
    }

    #[test]
    #[should_panic(expected = "file already exists")]
    fn duplicate_name_rejected() {
        let topo = Topology::single_rack(2);
        let mut ns = Namespace::new(1);
        let mut rng = SmallRng::seed_from_u64(11);
        ns.create_file(&topo, "/a", 10, 10, None, &mut rng);
        ns.create_file(&topo, "/a", 10, 10, None, &mut rng);
    }
}
