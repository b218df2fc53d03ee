//! The shared node pool: stable node identities across grants,
//! preemptions and deaths.
//!
//! A pool node's id is its index at construction and never changes —
//! unlike a job simulator's node indices, which renumber on eviction.
//! The controller keeps the two views consistent by mirroring each job's
//! simulator node order in its granted-id list and diffing by *name*
//! after every epoch (names are unique by construction).

use hetsim::cluster::NodeSpec;

#[derive(Debug)]
struct PoolNode {
    spec: NodeSpec,
    assigned: Option<usize>,
    dead: bool,
}

/// The fleet's shared heterogeneous node pool.
#[derive(Debug)]
pub struct NodePool {
    nodes: Vec<PoolNode>,
}

impl NodePool {
    /// Build a pool from node specs.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or two nodes share a name (names are
    /// the stable identity the death-reconciliation path keys on).
    pub fn new(specs: Vec<NodeSpec>) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one node");
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "pool node names must be unique");
        NodePool {
            nodes: specs.into_iter().map(|spec| PoolNode { spec, assigned: None, dead: false }).collect(),
        }
    }

    /// Total node count, dead nodes included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool holds no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Live (non-dead) node count.
    pub fn live(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// The spec of one node.
    pub fn spec(&self, id: usize) -> &NodeSpec {
        &self.nodes[id].spec
    }

    /// Live, unassigned node ids — fastest first (descending effective
    /// FLOPS, name as the deterministic tie-break), so grants hand out
    /// the most productive spare capacity.
    pub fn free_ids(&self) -> Vec<usize> {
        let mut free: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && n.assigned.is_none())
            .map(|(i, _)| i)
            .collect();
        free.sort_by(|&a, &b| {
            self.nodes[b]
                .spec
                .effective_flops()
                .total_cmp(&self.nodes[a].spec.effective_flops())
                .then_with(|| self.nodes[a].spec.name.cmp(&self.nodes[b].spec.name))
        });
        free
    }

    /// Every live node id — assigned or free — fastest first (same order
    /// as [`NodePool::free_ids`]). This is the reference node ranking the
    /// demand profiler scores scaling curves against: "what would this
    /// job deliver on the pool's `k` best nodes?".
    pub fn ranked_live(&self) -> Vec<usize> {
        let mut live: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| i)
            .collect();
        live.sort_by(|&a, &b| {
            self.nodes[b]
                .spec
                .effective_flops()
                .total_cmp(&self.nodes[a].spec.effective_flops())
                .then_with(|| self.nodes[a].spec.name.cmp(&self.nodes[b].spec.name))
        });
        live
    }

    /// The job currently holding a node, if any.
    pub fn assigned(&self, id: usize) -> Option<usize> {
        self.nodes[id].assigned
    }

    /// Whether a node has been marked dead.
    pub fn is_dead(&self, id: usize) -> bool {
        self.nodes[id].dead
    }

    /// Grant one free node to a job.
    ///
    /// # Panics
    ///
    /// Panics if the node is dead or already assigned — the invariant
    /// the handoff tests pin (no node serves two jobs in one epoch).
    pub fn assign(&mut self, id: usize, job: usize) {
        let node = &mut self.nodes[id];
        assert!(!node.dead, "cannot assign dead node {}", node.spec.name);
        assert!(node.assigned.is_none(), "node {} is already assigned to job {:?}", node.spec.name, node.assigned);
        node.assigned = Some(job);
    }

    /// Return a node to the free pool (preemption or job completion).
    pub fn release(&mut self, id: usize) {
        self.nodes[id].assigned = None;
    }

    /// Mark a node dead (fault-plan crash/leave surfaced by a job's
    /// simulator). Dead nodes never return to the free pool.
    pub fn mark_dead(&mut self, id: usize) {
        self.nodes[id].assigned = None;
        self.nodes[id].dead = true;
    }

    /// Snapshot of every node's owner (`None` = free or dead).
    pub fn assignments(&self) -> Vec<Option<usize>> {
        self.nodes.iter().map(|n| if n.dead { None } else { n.assigned }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;

    fn pool3() -> NodePool {
        NodePool::new(vec![
            NodeSpec::new("rtx-0", Gpu::Rtx6000),
            NodeSpec::new("a100-0", Gpu::A100),
            NodeSpec::new("v100-0", Gpu::V100),
        ])
    }

    #[test]
    fn free_ids_are_fastest_first() {
        let pool = pool3();
        let free = pool.free_ids();
        let flops: Vec<f64> = free.iter().map(|&i| pool.spec(i).effective_flops()).collect();
        for pair in flops.windows(2) {
            assert!(pair[0] >= pair[1], "descending: {flops:?}");
        }
        assert_eq!(pool.spec(free[0]).name, "a100-0");
    }

    #[test]
    fn lifecycle_assign_release_dead() {
        let mut pool = pool3();
        pool.assign(1, 0);
        assert_eq!(pool.assigned(1), Some(0));
        assert_eq!(pool.free_ids().len(), 2);
        pool.release(1);
        assert_eq!(pool.free_ids().len(), 3);
        pool.mark_dead(1);
        assert_eq!(pool.live(), 2);
        assert!(!pool.free_ids().contains(&1), "dead nodes never come back");
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assignment_panics() {
        let mut pool = pool3();
        pool.assign(0, 0);
        pool.assign(0, 1);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_names_rejected() {
        NodePool::new(vec![NodeSpec::new("n", Gpu::A100), NodeSpec::new("n", Gpu::V100)]);
    }
}
