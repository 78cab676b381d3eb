//! The multi-node simulation engine.
//!
//! Nodes are synchronized conservatively: only the node with the smallest
//! local cycle advances, and only up to `second_smallest + lookahead`,
//! where the lookahead is bounded by the smallest link latency. Packets a
//! node transmits are collected after each advance window and scheduled
//! into the receivers' device queues at `send + airtime + link latency`,
//! which the lookahead guarantees is never in a receiver's past. Steps
//! that would only move a parked node's clock are kept in the scheduler's
//! own clock array, and recurring runs of them are skipped whole; the
//! resulting schedule is exactly the step-by-step one (see
//! [`NetSim::run`]).

use crate::topology::{Topology, TopologyError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;
use tinyvm::{Packet, Program, TraceSink, VmError};

/// Slack subtracted from the lookahead to absorb a node finishing its last
/// instruction slightly past its advance limit.
const LOOKAHEAD_SLACK: u64 = 16;

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node's program faulted.
    NodeFault {
        /// The faulting node.
        node: u16,
        /// The machine fault.
        error: VmError,
    },
    /// The number of sinks did not match the number of nodes.
    SinkCountMismatch {
        /// Nodes in the simulation.
        nodes: usize,
        /// Sinks supplied.
        sinks: usize,
    },
    /// A node was added with an id that does not equal its index.
    NodeOrder {
        /// The id the next node must carry.
        expected: u16,
        /// The id it actually carried.
        got: u16,
    },
    /// A node was added beyond the topology's declared node count.
    NodeOutOfTopology {
        /// The offending node id.
        node: u16,
        /// Nodes the topology declares.
        count: u16,
    },
    /// A node id was looked up that was never added.
    UnknownNode {
        /// The requested id.
        node: u16,
        /// Nodes added so far.
        count: usize,
    },
    /// The underlying topology was invalid.
    Topology(TopologyError),
}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> SimError {
        SimError::Topology(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeFault { node, error } => write!(f, "node {node} faulted: {error}"),
            SimError::SinkCountMismatch { nodes, sinks } => {
                write!(f, "{nodes} nodes but {sinks} trace sinks")
            }
            SimError::NodeOrder { expected, got } => write!(
                f,
                "node ids must be assigned in index order (expected {expected}, got {got})"
            ),
            SimError::NodeOutOfTopology { node, count } => write!(
                f,
                "node {node} exceeds the topology's declared {count} nodes"
            ),
            SimError::UnknownNode { node, count } => {
                write!(f, "no node {node} (only {count} added)")
            }
            SimError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

/// Record of one attempted packet delivery (for oracles and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender node.
    pub src: u16,
    /// Receiver node this record concerns (one record per receiver).
    pub to: u16,
    /// Arrival cycle at the receiver.
    pub at_cycle: u64,
    /// Whether the link dropped the packet.
    pub dropped: bool,
    /// The payload.
    pub payload: Vec<u16>,
}

/// A deterministic multi-node WSN simulation.
///
/// # Examples
///
/// ```
/// # use std::sync::Arc;
/// # use netsim::{NetSim, topology::{LinkConfig, Topology}};
/// # use tinyvm::devices::NodeConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Arc::new(tinyvm::assemble("main:\n ret\n")?);
/// let topo = Topology::chain(2, LinkConfig::default())?;
/// let mut sim = NetSim::new(topo, 42);
/// sim.add_node(program.clone(), NodeConfig::default())?;
/// sim.add_node(program, NodeConfig { node_id: 1, ..NodeConfig::default() })?;
/// let mut sinks = vec![tinyvm::NullSink, tinyvm::NullSink];
/// sim.run(10_000, &mut sinks)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetSim {
    topology: Topology,
    nodes: Vec<Node>,
    loss_rng: ChaCha8Rng,
    deliveries: Vec<Delivery>,
    lookahead: u64,
}

impl NetSim {
    /// Creates a simulation over `topology`; `seed` drives link-loss draws.
    pub fn new(topology: Topology, seed: u64) -> NetSim {
        let lookahead = topology
            .min_latency()
            .unwrap_or(u64::MAX / 4)
            .saturating_sub(LOOKAHEAD_SLACK)
            .max(1);
        NetSim {
            topology,
            nodes: Vec::new(),
            loss_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_CAFE),
            deliveries: Vec::new(),
            lookahead,
        }
    }

    /// Adds a node running `program`. The node's id must equal its index
    /// (set `config.node_id` accordingly).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeOrder`] if `config.node_id` differs from the
    /// node's index, [`SimError::NodeOutOfTopology`] if it exceeds the
    /// topology's node count.
    pub fn add_node(
        &mut self,
        program: Arc<Program>,
        config: NodeConfig,
    ) -> Result<&mut Self, SimError> {
        if config.node_id as usize != self.nodes.len() {
            return Err(SimError::NodeOrder {
                expected: self.nodes.len() as u16,
                got: config.node_id,
            });
        }
        if config.node_id >= self.topology.node_count() {
            return Err(SimError::NodeOutOfTopology {
                node: config.node_id,
                count: self.topology.node_count(),
            });
        }
        self.nodes.push(Node::new(program, config));
        Ok(self)
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`NetSim::try_node`] for a
    /// fallible lookup.
    pub fn node(&self, id: u16) -> &Node {
        &self.nodes[id as usize]
    }

    /// The node with id `id`, or [`SimError::UnknownNode`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNode`] if no node with that id was added.
    pub fn try_node(&self, id: u16) -> Result<&Node, SimError> {
        self.nodes.get(id as usize).ok_or(SimError::UnknownNode {
            node: id,
            count: self.nodes.len(),
        })
    }

    /// Mutable access to the node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`NetSim::try_node_mut`] for a
    /// fallible lookup.
    pub fn node_mut(&mut self, id: u16) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// Mutable access to the node with id `id`, or
    /// [`SimError::UnknownNode`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNode`] if no node with that id was added.
    pub fn try_node_mut(&mut self, id: u16) -> Result<&mut Node, SimError> {
        let count = self.nodes.len();
        self.nodes
            .get_mut(id as usize)
            .ok_or(SimError::UnknownNode { node: id, count })
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All attempted deliveries so far (including dropped ones).
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Runs the simulation until every node reaches `until` (or halts),
    /// then flushes every node's final trace segment. Call once per
    /// simulation.
    ///
    /// # Schedule
    ///
    /// Each step advances the laggard: the active node (not halted, below
    /// `until`) with the smallest cycle, the lowest id on ties. It runs
    /// to `cap = min(second + lookahead, until)`, where `second` is the
    /// next-smallest active cycle (`until` if it is alone), and its
    /// transmissions are routed before the next step.
    ///
    /// Most steps land on a parked node ([`Node::parked_until`]), for
    /// which `advance(cap)` would only set its cycle to `cap`. Those
    /// steps touch only the scheduler's clock array, and recurring runs
    /// of them are skipped whole. The schedule stays exactly that of a
    /// step-by-step scan (every trace, delivery, loss draw and final node
    /// cycle) because:
    ///
    /// - a parked node's own cycle may lag its schedule clock, but its
    ///   next real `advance` starts from the lagging cycle and parks at
    ///   the same next-event cycle, since nothing is due before it;
    /// - a packet routed to a parked node arrives after the node's
    ///   schedule clock, since the lookahead is shorter than every link
    ///   latency, and the receiver's parked cycle is refreshed after
    ///   routing;
    /// - while every cap stays below `until` and at or below the parked
    ///   cycle of the node it lands on, a step depends only on the
    ///   clocks' offsets from the laggard and on node ids. Once a run of
    ///   parked steps returns to an earlier arrangement (queue order and
    ///   offsets), it repeats with a fixed shift, and as many whole
    ///   repetitions are skipped as keep every skipped cap within both
    ///   bounds;
    /// - real steps, routing and loss draws happen in the scan's global
    ///   order, and before `run` returns, on a fault too, every lagging
    ///   node is parked up to its clock.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SinkCountMismatch`] if `sinks.len()` differs
    /// from the node count, or [`SimError::NodeFault`] if a program
    /// faults (remaining nodes stop where they are).
    pub fn run<S: TraceSink>(&mut self, until: u64, sinks: &mut [S]) -> Result<(), SimError> {
        if sinks.len() != self.nodes.len() {
            return Err(SimError::SinkCountMismatch {
                nodes: self.nodes.len(),
                sinks: sinks.len(),
            });
        }
        let mut clocks = Clocks::new(&self.nodes, until);
        let mut period = Period::default();
        while let Some(&idx) = clocks.queue.front() {
            let second = clocks.queue.get(1).map_or(until, |&j| clocks.clock[j]);
            let cap = second.saturating_add(self.lookahead).min(until);
            if clocks.parked[idx].is_some_and(|p| cap <= p) {
                clocks.step(idx, cap, cap < until);
                if let Some(shift) = period.observe(&clocks) {
                    clocks.jump(shift, until);
                    period = Period::default();
                }
                continue;
            }
            period = Period::default();
            let routed = self.deliveries.len();
            if let Err(error) = self.nodes[idx].advance(cap, &mut sinks[idx]) {
                self.catch_up(&clocks.clock, sinks);
                return Err(SimError::NodeFault {
                    node: idx as u16,
                    error,
                });
            }
            self.route_outbox(idx);
            clocks.parked[idx] = self.nodes[idx].parked_until();
            for d in &self.deliveries[routed..] {
                if !d.dropped {
                    clocks.parked[d.to as usize] = self.nodes[d.to as usize].parked_until();
                }
            }
            let cycle = self.nodes[idx].cycle();
            clocks.step(idx, cycle, cycle < until && !self.nodes[idx].halted());
        }
        self.catch_up(&clocks.clock, sinks);
        for (node, sink) in self.nodes.iter_mut().zip(sinks.iter_mut()) {
            node.finish(sink);
        }
        Ok(())
    }

    /// Parks every node whose own cycle lags its schedule clock up to
    /// that clock. Such a node took only parked steps since its last real
    /// one, and no delivery lands at or before its clock, so the call
    /// moves its cycle and nothing else.
    fn catch_up<S: TraceSink>(&mut self, clock: &[u64], sinks: &mut [S]) {
        for ((node, sink), &c) in self.nodes.iter_mut().zip(sinks.iter_mut()).zip(clock) {
            if node.cycle() < c {
                debug_assert!(node.parked_until().is_some_and(|p| c <= p));
                let parked = node.advance(c, sink);
                debug_assert!(parked.is_ok(), "a parked node cannot fault");
            }
        }
    }

    /// Routes packets transmitted by node `idx` to their receivers.
    fn route_outbox(&mut self, idx: usize) {
        let src = idx as u16;
        let outgoing = self.nodes[idx].drain_outbox();
        for out in outgoing {
            let end_of_air = out.sent_at + out.duration;
            let receivers: Vec<(u16, u64, f64)> = self
                .topology
                .neighbors(src)
                .filter(|(to, _)| {
                    out.packet.dest == tinyvm::isa::port::BROADCAST || out.packet.dest == *to
                })
                .map(|(to, link)| (to, end_of_air + link.latency_cycles, link.loss_prob))
                .collect();
            for (to, at_cycle, loss_prob) in receivers {
                let dropped = loss_prob > 0.0 && self.loss_rng.gen::<f64>() < loss_prob;
                self.deliveries.push(Delivery {
                    src,
                    to,
                    at_cycle,
                    dropped,
                    payload: out.packet.payload.clone(),
                });
                if !dropped {
                    debug_assert!(
                        at_cycle + LOOKAHEAD_SLACK >= self.nodes[to as usize].cycle(),
                        "causality: delivery at {at_cycle} behind receiver {}",
                        self.nodes[to as usize].cycle()
                    );
                    self.nodes[to as usize].inject_rx(
                        at_cycle,
                        Packet {
                            src,
                            dest: out.packet.dest,
                            payload: out.packet.payload.clone(),
                        },
                    );
                }
            }
        }
    }
}

/// The scheduler's view of one [`NetSim::run`]: every node's schedule
/// clock and parked cycle, and the active nodes in schedule order.
struct Clocks {
    /// The cycle each node has reached in the schedule. A parked node's
    /// own cycle may lag it until [`NetSim::catch_up`].
    clock: Vec<u64>,
    /// Each node's [`Node::parked_until`], refreshed whenever the node
    /// ran or received a packet.
    parked: Vec<Option<u64>>,
    /// Active nodes (not halted, clock below `until`) sorted by
    /// `(clock, id)`: the front is the laggard.
    queue: VecDeque<usize>,
}

impl Clocks {
    fn new(nodes: &[Node], until: u64) -> Clocks {
        let clock: Vec<u64> = nodes.iter().map(Node::cycle).collect();
        let mut queue: Vec<usize> = (0..nodes.len())
            .filter(|&i| !nodes[i].halted() && clock[i] < until)
            .collect();
        queue.sort_by_key(|&i| (clock[i], i));
        Clocks {
            parked: nodes.iter().map(Node::parked_until).collect(),
            clock,
            queue: queue.into(),
        }
    }

    /// Moves the laggard `idx` to `cycle`, re-queueing it if it is still
    /// `active`.
    fn step(&mut self, idx: usize, cycle: u64, active: bool) {
        debug_assert_eq!(self.queue.front(), Some(&idx));
        self.queue.pop_front();
        self.clock[idx] = cycle;
        if active {
            let key = (cycle, idx);
            let at = self.queue.partition_point(|&j| (self.clock[j], j) < key);
            self.queue.insert(at, idx);
        }
    }

    /// Skips whole repetitions of a stretch of parked steps whose
    /// arrangement recurred `shift` cycles later. Every active node took
    /// a step in the stretch, and its clock is the highest cap it got
    /// there, so after `k` more repetitions its highest cap is
    /// `clock + k * shift`. `k` is the largest count keeping that at or
    /// below the node's parked cycle and below `until` for every node.
    fn jump(&mut self, shift: u64, until: u64) {
        let Some(k) = self
            .queue
            .iter()
            .map(|&i| self.parked[i].map_or(0, |p| (p.min(until - 1) - self.clock[i]) / shift))
            .min()
        else {
            return;
        };
        for &i in &self.queue {
            self.clock[i] += k * shift;
        }
    }
}

/// Recurrence detector for stretches of parked steps (Brent's cycle
/// finding): it keeps one snapshot of the queue order and each clock's
/// offset from the laggard, retaken after 1, 2, 4, ... steps, and
/// reports the laggard's shift when the current arrangement equals it.
#[derive(Default)]
struct Period {
    /// `(node, clock - laggard clock)` per queue position.
    snapshot: Vec<(usize, u64)>,
    /// The laggard's clock when the snapshot was taken.
    front: u64,
    /// Steps since the snapshot, and the count that retakes it.
    steps: usize,
    limit: usize,
}

impl Period {
    /// Records the arrangement after a parked step. Returns the shift
    /// when it equals the snapshot.
    fn observe(&mut self, clocks: &Clocks) -> Option<u64> {
        let front = clocks.clock[*clocks.queue.front()?];
        let arrangement = clocks.queue.iter().map(|&i| (i, clocks.clock[i] - front));
        if !self.snapshot.is_empty() {
            self.steps += 1;
            if front > self.front && arrangement.clone().eq(self.snapshot.iter().copied()) {
                return Some(front - self.front);
            }
            if self.steps < self.limit {
                return None;
            }
        }
        self.snapshot.clear();
        self.snapshot.extend(arrangement);
        self.front = front;
        self.limit = (2 * self.limit).max(1);
        self.steps = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkConfig, MIN_LINK_LATENCY};
    use proptest::prelude::*;
    use tinyvm::{LifecycleItem, NullSink, TimingModel};

    impl NetSim {
        /// The scan-loop scheduler `run` replaced, kept verbatim as the
        /// exactness reference: every step rescans all nodes for the
        /// laggard and calls `advance` on it, parked or not.
        fn run_reference<S: TraceSink>(
            &mut self,
            until: u64,
            sinks: &mut [S],
        ) -> Result<(), SimError> {
            if sinks.len() != self.nodes.len() {
                return Err(SimError::SinkCountMismatch {
                    nodes: self.nodes.len(),
                    sinks: sinks.len(),
                });
            }
            loop {
                // Pick the laggard among nodes still below `until` and not
                // halted.
                let mut laggard: Option<(usize, u64)> = None;
                let mut second = until;
                for (i, n) in self.nodes.iter().enumerate() {
                    if n.halted() || n.cycle() >= until {
                        continue;
                    }
                    match laggard {
                        None => laggard = Some((i, n.cycle())),
                        Some((_, c)) if n.cycle() < c => {
                            second = c;
                            laggard = Some((i, n.cycle()));
                        }
                        Some(_) => second = second.min(n.cycle()),
                    }
                }
                let Some((idx, _)) = laggard else { break };
                let cap = second.saturating_add(self.lookahead).min(until);
                let node_id = idx as u16;
                if let Err(error) = self.nodes[idx].advance(cap, &mut sinks[idx]) {
                    return Err(SimError::NodeFault {
                        node: node_id,
                        error,
                    });
                }
                self.route_outbox(idx);
            }
            for (node, sink) in self.nodes.iter_mut().zip(sinks.iter_mut()) {
                node.finish(sink);
            }
            Ok(())
        }
    }

    /// Records every lifecycle item and segment a node emits.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct VecSink {
        items: Vec<(u64, LifecycleItem)>,
        segments: Vec<Vec<u32>>,
    }

    impl TraceSink for VecSink {
        fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
            self.items.push((cycle, item));
        }
        fn segment(&mut self, counts: &[u32]) {
            self.segments.push(counts.to_vec());
        }
    }

    /// What a node program does in a generated network.
    #[derive(Debug, Clone, Copy)]
    enum Role {
        /// Broadcasts its id every `period` ticks and counts what it hears.
        Beacon,
        /// Unicasts its id to node 1 every `period` ticks.
        Sender,
        /// Echoes every received word to the UART; never sets a timer.
        Receiver,
        /// Sleeps in `main`, woken by its timer, forever.
        Sleeper,
        /// Halts inside its timer handler on the `k`-th tick.
        Halter,
        /// Floods its task queue on the `k`-th tick and faults.
        Faulter,
    }

    fn role_source(role: Role, period: u16, k: u16) -> String {
        let timer = format!(
            "\
 ldi r1, {period}
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
"
        );
        match role {
            Role::Beacon => format!(
                "\
.handler TIMER0 beat
.handler RX on_rx
.data heard 1
main:
{timer} ret
beat:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 ldi r3, 0xFFFF
 out RADIO_SEND, r3
 reti
on_rx:
 in r1, RADIO_RX_POP
 lda r2, heard
 addi r2, 1
 sta heard, r2
 reti
"
            ),
            Role::Sender => format!(
                "\
.handler TIMER0 fire
main:
{timer} ret
fire:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 ldi r3, 1
 out RADIO_SEND, r3
 reti
"
            ),
            Role::Receiver => "\
.handler RX on_rx
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 reti
"
            .to_string(),
            Role::Sleeper => format!(
                "\
.handler TIMER0 tick
.data ticks 1
main:
{timer}nap:
 sleep
 lda r2, ticks
 out UART_OUT, r2
 jmp nap
tick:
 lda r2, ticks
 addi r2, 1
 sta ticks, r2
 reti
"
            ),
            Role::Halter => format!(
                "\
.handler TIMER0 tick
.data left 1
main:
 ldi r1, {k}
 sta left, r1
{timer} ret
tick:
 lda r2, left
 subi r2, 1
 sta left, r2
 brne keep
 halt
keep:
 reti
"
            ),
            Role::Faulter => format!(
                "\
.handler TIMER0 tick
.task t
.data left 1
main:
 ldi r1, {k}
 sta left, r1
{timer} ret
tick:
 lda r2, left
 subi r2, 1
 sta left, r2
 brne keep
flood:
 post t
 jmp flood
keep:
 post t
 reti
t:
 ret
"
            ),
        }
    }

    fn role() -> impl Strategy<Value = Role> {
        prop_oneof![
            Just(Role::Beacon),
            Just(Role::Sender),
            Just(Role::Receiver),
            Just(Role::Sleeper),
            Just(Role::Halter),
            Just(Role::Faulter),
        ]
    }

    /// The undirected edges of a generated topology over `n` nodes.
    fn edges(shape: u8, n: u16, extra: &[(u16, u16)]) -> Vec<(u16, u16)> {
        match shape {
            // Chain.
            0 => (1..n).map(|i| (i - 1, i)).collect(),
            // Star around node 0.
            1 => (1..n).map(|i| (0, i)).collect(),
            // Grid, three columns wide.
            2 => (0..n)
                .flat_map(|i| {
                    let right = (i % 3 != 2 && i + 1 < n).then_some((i, i + 1));
                    let down = (i + 3 < n).then_some((i, i + 3));
                    right.into_iter().chain(down)
                })
                .collect(),
            // Random.
            _ => {
                let mut out: Vec<(u16, u16)> = Vec::new();
                for &(a, b) in extra {
                    let (a, b) = (a % n, b % n);
                    let e = (a.min(b), a.max(b));
                    if a != b && !out.contains(&e) {
                        out.push(e);
                    }
                }
                out
            }
        }
    }

    /// A generated network: its shape, per-node roles, timer periods,
    /// tick counts and timing models, per-link latency and loss, and the
    /// loss seed.
    #[derive(Debug, Clone)]
    struct Network {
        shape: u8,
        nodes: Vec<(Role, u16, u16, bool)>,
        extra: Vec<(u16, u16)>,
        links: Vec<(u64, f64)>,
        seed: u64,
    }

    fn network() -> impl Strategy<Value = Network> {
        (
            0u8..4,
            prop::collection::vec((role(), 1u16..120, 1u16..100, any::<bool>()), 1..10),
            prop::collection::vec((0u16..16, 0u16..16), 0..14),
            prop::collection::vec((MIN_LINK_LATENCY..2_001, 0.0f64..0.5), 1..8),
            any::<u64>(),
        )
            .prop_map(|(shape, nodes, extra, links, seed)| Network {
                shape,
                nodes,
                extra,
                links,
                seed,
            })
    }

    fn build(net: &Network) -> NetSim {
        let n = net.nodes.len() as u16;
        let mut topo = Topology::new(n);
        for (i, (a, b)) in edges(net.shape, n, &net.extra).into_iter().enumerate() {
            let (latency_cycles, loss_prob) = net.links[i % net.links.len()];
            topo.connect(
                a,
                b,
                LinkConfig {
                    latency_cycles,
                    loss_prob,
                },
            )
            .unwrap();
        }
        let mut sim = NetSim::new(topo, net.seed);
        for (id, &(role, period, k, zero_cost)) in net.nodes.iter().enumerate() {
            let program = Arc::new(tinyvm::assemble(&role_source(role, period, k)).unwrap());
            sim.add_node(
                program,
                NodeConfig {
                    node_id: id as u16,
                    seed: net.seed.wrapping_add(id as u64),
                    timing: if zero_cost {
                        TimingModel::ZeroCostEvents
                    } else {
                        TimingModel::CycleAccurate
                    },
                    ..NodeConfig::default()
                },
            )
            .unwrap();
        }
        sim
    }

    /// Horizons: 0, 1, below every lookahead (which is at least
    /// `MIN_LINK_LATENCY - LOOKAHEAD_SLACK`), or, five times in eight,
    /// anywhere up to 2M.
    fn horizon() -> impl Strategy<Value = u64> {
        let below = MIN_LINK_LATENCY - LOOKAHEAD_SLACK;
        (0u8..8, 0u64..2_000_001).prop_map(move |(kind, v)| match kind {
            0 => 0,
            1 => 1,
            2 => 2 + v % (below - 2),
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `run` and the scan-loop reference produce the same traces,
        /// deliveries, final node states and result on any network.
        #[test]
        fn run_matches_the_scan_loop_reference(net in network(), until in horizon()) {
            let mut fast = build(&net);
            let mut slow = build(&net);
            let n = net.nodes.len();
            let mut fast_sinks = vec![VecSink::default(); n];
            let mut slow_sinks = vec![VecSink::default(); n];
            let fast_result = fast.run(until, &mut fast_sinks);
            let slow_result = slow.run_reference(until, &mut slow_sinks);
            prop_assert_eq!(&fast_result, &slow_result);
            prop_assert_eq!(fast.deliveries(), slow.deliveries());
            for id in 0..n as u16 {
                let (a, b) = (fast.node(id), slow.node(id));
                prop_assert_eq!(&fast_sinks[id as usize], &slow_sinks[id as usize], "node {}", id);
                prop_assert_eq!(a.cycle(), b.cycle(), "node {} cycle", id);
                prop_assert_eq!(a.instructions_retired(), b.instructions_retired());
                prop_assert_eq!(a.uart(), b.uart());
                prop_assert_eq!(a.halted(), b.halted());
                prop_assert_eq!(a.fault(), b.fault());
            }
        }
    }

    fn sender_program() -> Arc<Program> {
        Arc::new(
            tinyvm::assemble(
                "\
.handler TIMER0 fire
main:
 ldi r1, 20
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
fire:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 ldi r3, 1          ; dest: node 1
 out RADIO_SEND, r3
 reti
",
            )
            .unwrap(),
        )
    }

    fn receiver_program() -> Arc<Program> {
        Arc::new(
            tinyvm::assemble(
                "\
.handler RX on_rx
.data count 1
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 lda r2, count
 addi r2, 1
 sta count, r2
 reti
",
            )
            .unwrap(),
        )
    }

    fn two_node_sim(loss: f64) -> NetSim {
        let mut topo = Topology::new(2);
        topo.connect(
            0,
            1,
            LinkConfig {
                latency_cycles: 128,
                loss_prob: loss,
            },
        )
        .unwrap();
        let mut sim = NetSim::new(topo, 7);
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 1,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        sim
    }

    #[test]
    fn packets_flow_between_nodes() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(500_000, &mut sinks).unwrap();
        let uart = sim.node(1).uart();
        assert!(!uart.is_empty(), "receiver heard nothing");
        assert!(uart.iter().all(|&w| w == 0), "payload carries sender id 0");
        let delivered = sim.deliveries().iter().filter(|d| !d.dropped).count();
        // Packets landing at the very horizon may go unprocessed.
        assert!(uart.len() <= delivered && uart.len() + 2 >= delivered);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let mut sim = two_node_sim(0.5);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(500_000, &mut sinks).unwrap();
        let total = sim.deliveries().len();
        let dropped = sim.deliveries().iter().filter(|d| d.dropped).count();
        assert!(total > 20);
        assert!(dropped > 0, "no losses at p=0.5");
        assert!(dropped < total, "everything lost at p=0.5");
        let heard = sim.node(1).uart().len();
        let delivered = total - dropped;
        assert!(heard <= delivered && heard + 2 >= delivered);
    }

    #[test]
    fn unicast_to_non_neighbor_is_lost() {
        // Node 0 sends to id 1, but only a 0-2 link exists.
        let mut topo = Topology::new(3);
        topo.connect(0, 2, LinkConfig::default()).unwrap();
        let mut sim = NetSim::new(topo, 1);
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 1,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 2,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let mut sinks = vec![NullSink, NullSink, NullSink];
        sim.run(100_000, &mut sinks).unwrap();
        assert!(sim.deliveries().is_empty());
        assert!(sim.node(1).uart().is_empty());
        assert!(sim.node(2).uart().is_empty());
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let bcast = Arc::new(
            tinyvm::assemble(
                "\
.handler TIMER0 fire
main:
 ldi r1, 50
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
fire:
 ldi r2, 99
 out RADIO_TX_PUSH, r2
 ldi r3, 0xFFFF
 out RADIO_SEND, r3
 out TIMER0_CTRL, r0
 reti
",
            )
            .unwrap(),
        );
        let topo = Topology::star(3, LinkConfig::default()).unwrap();
        let mut sim = NetSim::new(topo, 3);
        sim.add_node(bcast, NodeConfig::default()).unwrap();
        for id in 1..3 {
            sim.add_node(
                receiver_program(),
                NodeConfig {
                    node_id: id,
                    ..NodeConfig::default()
                },
            )
            .unwrap();
        }
        let mut sinks = vec![NullSink, NullSink, NullSink];
        sim.run(200_000, &mut sinks).unwrap();
        assert_eq!(sim.node(1).uart(), &[99]);
        assert_eq!(sim.node(2).uart(), &[99]);
    }

    #[test]
    fn sink_count_mismatch_rejected() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink];
        assert!(matches!(
            sim.run(1_000, &mut sinks),
            Err(SimError::SinkCountMismatch { nodes: 2, sinks: 1 })
        ));
    }

    #[test]
    fn node_fault_reports_id() {
        let bad = Arc::new(tinyvm::assemble("main:\n in r1, 0x7F\n ret\n").unwrap());
        let topo = Topology::new(1);
        let mut sim = NetSim::new(topo, 0);
        sim.add_node(bad, NodeConfig::default()).unwrap();
        let mut sinks = vec![NullSink];
        match sim.run(1_000, &mut sinks) {
            Err(SimError::NodeFault { node: 0, .. }) => {}
            other => panic!("expected node fault, got {other:?}"),
        }
    }

    #[test]
    fn bad_node_registration_is_a_typed_error() {
        let mut sim = NetSim::new(Topology::new(1), 0);
        assert_eq!(
            sim.add_node(
                sender_program(),
                NodeConfig {
                    node_id: 3,
                    ..NodeConfig::default()
                }
            )
            .unwrap_err(),
            SimError::NodeOrder {
                expected: 0,
                got: 3
            }
        );
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        assert_eq!(
            sim.add_node(
                sender_program(),
                NodeConfig {
                    node_id: 1,
                    ..NodeConfig::default()
                }
            )
            .unwrap_err(),
            SimError::NodeOutOfTopology { node: 1, count: 1 }
        );
        assert!(sim.try_node(0).is_ok());
        assert_eq!(
            sim.try_node(9).unwrap_err(),
            SimError::UnknownNode { node: 9, count: 1 }
        );
        assert_eq!(
            sim.try_node_mut(9).unwrap_err(),
            SimError::UnknownNode { node: 9, count: 1 }
        );
        let topo_err: SimError = crate::topology::TopologyError::SelfLink { node: 2 }.into();
        assert!(topo_err.to_string().contains("self-link"));
    }

    #[test]
    fn deterministic_multi_node_replay() {
        let run = || {
            let mut sim = two_node_sim(0.3);
            let mut sinks = vec![NullSink, NullSink];
            sim.run(300_000, &mut sinks).unwrap();
            (
                sim.deliveries().to_vec(),
                sim.node(1).uart().to_vec(),
                sim.node(0).instructions_retired(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_nodes_reach_the_horizon() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(123_456, &mut sinks).unwrap();
        for id in 0..2 {
            assert!(sim.node(id).cycle() >= 123_456);
        }
    }
}
