//! The ETL flow graph: operations, edges, topological evaluation order,
//! schema propagation, and requirement traceability.

use crate::ops::OpKind;
use crate::schema::Schema;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Identifier of an operation within a flow. Ids are assigned on insertion
/// and never reused, so they stay stable across removals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// The set of requirement IDs an operation serves (mirrors the MD side).
pub type ReqSet = BTreeSet<String>;

/// One operation of a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    pub id: OpId,
    /// Unique name within the flow, e.g. `DATASTORE_Partsupp`.
    pub name: String,
    pub kind: OpKind,
    pub satisfies: ReqSet,
}

/// Errors raised by flow construction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    UnknownOp(String),
    DuplicateName(String),
    DuplicateEdge {
        from: String,
        to: String,
    },
    Cycle,
    /// Wrong number of inputs for an operation.
    Arity {
        op: String,
        expected: usize,
        found: usize,
    },
    /// Operation parameters inconsistent with its input schemas.
    InvalidOp {
        op: String,
        detail: String,
    },
    /// An operation (other than a loader) whose output nobody consumes.
    DanglingOutput(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownOp(n) => write!(f, "unknown operation `{n}`"),
            FlowError::DuplicateName(n) => write!(f, "duplicate operation name `{n}`"),
            FlowError::DuplicateEdge { from, to } => write!(f, "duplicate edge `{from}` → `{to}`"),
            FlowError::Cycle => write!(f, "the flow graph contains a cycle"),
            FlowError::Arity { op, expected, found } => {
                write!(f, "operation `{op}` expects {expected} input(s), found {found}")
            }
            FlowError::InvalidOp { op, detail } => write!(f, "operation `{op}` is invalid: {detail}"),
            FlowError::DanglingOutput(n) => write!(f, "operation `{n}` produces output nobody consumes"),
        }
    }
}

impl std::error::Error for FlowError {}

/// One operation plus its slice of the adjacency index.
#[derive(Debug, Clone)]
struct Node {
    op: Operation,
    /// Producers feeding this operation, in edge order (left input first).
    ins: Vec<OpId>,
    /// Consumers of this operation's output, in edge order.
    outs: Vec<OpId>,
}

/// One reversible structural edit, recorded while a journal is open (see
/// [`Flow::begin_journal`]). Replaying a journal backwards restores the exact
/// prior flow: operation order, edge order and `next_id`.
#[derive(Debug, Clone)]
pub(crate) enum Edit {
    /// `add_op` appended an operation (ids only grow, so it is the last one).
    OpAdded {
        id: OpId,
    },
    /// An operation entry left position `pos` of the operation list.
    OpRemoved {
        pos: usize,
        op: Operation,
    },
    /// `set_kind` replaced an operation's kind.
    Kind {
        id: OpId,
        old: OpKind,
    },
    /// `op_mut_journaled` handed an operation out; `old` is its snapshot.
    Op {
        old: Operation,
    },
    EdgeInserted {
        pos: usize,
        edge: (OpId, OpId),
    },
    EdgeRemoved {
        pos: usize,
        edge: (OpId, OpId),
    },
    EdgeSet {
        pos: usize,
        old: (OpId, OpId),
        new: (OpId, OpId),
    },
}

/// The edits recorded between [`Flow::begin_journal`] and
/// [`Flow::take_journal`], oldest first. [`Flow::revert`] on the flow that
/// recorded it, before any further edit, takes them back.
#[derive(Debug, Clone, Default)]
pub struct Journal(pub(crate) Vec<Edit>);

/// What [`Flow::retract_requirement`] changed.
#[derive(Debug, Clone, Default)]
pub struct Retraction {
    /// Whether any operation stopped serving the requirement.
    pub changed: bool,
    /// The operations pruned because they serve no requirement any more, in
    /// flow order.
    pub pruned: Vec<Operation>,
    /// Surviving operations that lost a consumer to the pruning, ascending.
    pub lost_consumers: Vec<OpId>,
    /// Surviving operations that lost an input to the pruning, ascending.
    pub lost_inputs: Vec<OpId>,
}

/// A logical ETL process: a named DAG of operations.
///
/// The ordered `edges` list is the source of truth (left/right input order,
/// xLM bytes, equality); every operation additionally carries its inputs and
/// consumers, in edge order, so [`inputs_of`](Self::inputs_of) and
/// [`outputs_of`](Self::outputs_of) are O(degree) borrowed slices. Every
/// mutator keeps that index exact: an edge edit finds the edge's ordinal among
/// its endpoints' edges with one scan of the flat edge array.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    pub name: String,
    /// Sorted by id: `add_op` appends strictly increasing ids and removals
    /// preserve order, so lookups binary-search.
    ops: Vec<Node>,
    /// Edges in insertion order; for binary operations the first incoming
    /// edge is the left input, the second the right.
    edges: Vec<(OpId, OpId)>,
    next_id: u32,
    /// Open edit journal, if any.
    journal: Option<Vec<Edit>>,
}

/// Equality is over the design itself; the adjacency index is derived from
/// `edges` and an open journal is bookkeeping.
impl PartialEq for Flow {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.next_id == other.next_id
            && self.edges == other.edges
            && self.ops.len() == other.ops.len()
            && self.ops.iter().zip(&other.ops).all(|(a, b)| a.op == b.op)
    }
}

impl Flow {
    pub fn new(name: impl Into<String>) -> Self {
        Flow { name: name.into(), ..Flow::default() }
    }

    // ---- construction ------------------------------------------------------

    /// Adds an operation; names must be unique within the flow.
    pub fn add_op(&mut self, name: impl Into<String>, kind: OpKind) -> Result<OpId, FlowError> {
        let name = name.into();
        if self.op_by_name(&name).is_some() {
            return Err(FlowError::DuplicateName(name));
        }
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.ops.push(Node {
            op: Operation { id, name, kind, satisfies: ReqSet::new() },
            ins: Vec::new(),
            outs: Vec::new(),
        });
        self.log(Edit::OpAdded { id });
        Ok(id)
    }

    /// Adds a data edge `from → to`.
    pub fn connect(&mut self, from: OpId, to: OpId) -> Result<(), FlowError> {
        for id in [from, to] {
            if !self.contains(id) {
                return Err(FlowError::UnknownOp(format!("#{}", id.0)));
            }
        }
        if self.outputs_of(from).contains(&to) {
            return Err(FlowError::DuplicateEdge { from: self.op(from).name.clone(), to: self.op(to).name.clone() });
        }
        self.insert_edge(self.edges.len(), (from, to));
        Ok(())
    }

    /// Adds an operation and connects a single input in one step.
    pub fn append(&mut self, input: OpId, name: impl Into<String>, kind: OpKind) -> Result<OpId, FlowError> {
        let id = self.add_op(name, kind)?;
        self.connect(input, id)?;
        Ok(id)
    }

    // ---- access ------------------------------------------------------------

    fn pos(&self, id: OpId) -> Option<usize> {
        self.ops.binary_search_by_key(&id, |n| n.op.id).ok()
    }

    fn node(&self, id: OpId) -> &Node {
        &self.ops[self.pos(id).expect("operation id belongs to this flow")]
    }

    fn node_mut(&mut self, id: OpId) -> &mut Node {
        let i = self.pos(id).expect("operation id belongs to this flow");
        &mut self.ops[i]
    }

    /// Whether `id` names an operation of this flow.
    pub fn contains(&self, id: OpId) -> bool {
        self.pos(id).is_some()
    }

    /// Panics on unknown id (ids are internal; external lookups go by name).
    pub fn op(&self, id: OpId) -> &Operation {
        &self.node(id).op
    }

    /// Not journaled: while a journal is open, only for operations added
    /// under it (use `set_kind` or
    /// [`op_mut_journaled`](Self::op_mut_journaled) for the others).
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.node_mut(id).op
    }

    pub fn op_by_name(&self, name: &str) -> Option<&Operation> {
        self.ops().find(|o| o.name == name)
    }

    pub fn id_by_name(&self, name: &str) -> Option<OpId> {
        self.op_by_name(name).map(|o| o.id)
    }

    pub fn ops(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().map(|n| &n.op)
    }

    pub fn ops_mut(&mut self) -> impl Iterator<Item = &mut Operation> {
        debug_assert!(self.journal.is_none(), "bulk mutation is not journaled");
        self.ops.iter_mut().map(|n| &mut n.op)
    }

    pub fn edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Inputs of an operation in edge-insertion order (left input first).
    pub fn inputs_of(&self, id: OpId) -> &[OpId] {
        &self.node(id).ins
    }

    /// Consumers of an operation's output, in edge-insertion order.
    pub fn outputs_of(&self, id: OpId) -> &[OpId] {
        &self.node(id).outs
    }

    /// Source operations (no inputs by kind).
    pub fn sources(&self) -> Vec<OpId> {
        self.ops().filter(|o| o.kind.is_source()).map(|o| o.id).collect()
    }

    /// Sink operations (loaders).
    pub fn sinks(&self) -> Vec<OpId> {
        self.ops().filter(|o| o.kind.is_sink()).map(|o| o.id).collect()
    }

    /// All operations upstream of `id` (excluding `id`).
    pub fn upstream_of(&self, id: OpId) -> BTreeSet<OpId> {
        let mut out = BTreeSet::new();
        let mut stack = self.inputs_of(id).to_vec();
        while let Some(cur) = stack.pop() {
            if out.insert(cur) {
                stack.extend(self.inputs_of(cur));
            }
        }
        out
    }

    /// All operations downstream of `id` (excluding `id`).
    pub fn downstream_of(&self, id: OpId) -> BTreeSet<OpId> {
        let mut out = BTreeSet::new();
        let mut stack = self.outputs_of(id).to_vec();
        while let Some(cur) = stack.pop() {
            if out.insert(cur) {
                stack.extend(self.outputs_of(cur));
            }
        }
        out
    }

    // ---- analysis ------------------------------------------------------------

    /// Kahn topological order in O(V + E) over the adjacency index (plus one
    /// counter per id ever assigned); `Err(Cycle)` when the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>, FlowError> {
        let mut pending = vec![0usize; self.next_id as usize];
        // Deterministic: seed queue in insertion order.
        let mut out = Vec::with_capacity(self.ops.len());
        for n in &self.ops {
            pending[n.op.id.0 as usize] = n.ins.len();
            if n.ins.is_empty() {
                out.push(n.op.id);
            }
        }
        let mut head = 0;
        while head < out.len() {
            let cur = out[head];
            head += 1;
            for &next in self.outputs_of(cur) {
                let d = &mut pending[next.0 as usize];
                *d -= 1;
                if *d == 0 {
                    out.push(next);
                }
            }
        }
        if out.len() == self.ops.len() {
            Ok(out)
        } else {
            Err(FlowError::Cycle)
        }
    }

    /// Propagates schemas through the DAG, validating every operation.
    /// Returns the output schema of each operation.
    pub fn schemas(&self) -> Result<HashMap<OpId, Schema>, FlowError> {
        let order = self.topo_order()?;
        let mut out: HashMap<OpId, Schema> = HashMap::with_capacity(order.len());
        for id in order {
            let op = self.op(id);
            // Kahn order: every input was propagated before its consumer.
            let inputs: Vec<&Schema> = self.inputs_of(id).iter().map(|i| &out[i]).collect();
            let schema = op.kind.output_schema(&op.name, &inputs)?;
            out.insert(id, schema);
        }
        Ok(out)
    }

    /// Full validation: acyclic, schema-correct, and every non-loader output
    /// consumed.
    pub fn validate(&self) -> Result<(), FlowError> {
        self.schemas()?;
        self.check_outputs_consumed()
    }

    /// The structural half of [`validate`](Self::validate), for callers that
    /// already propagated schemas: every non-loader output is consumed.
    pub fn check_outputs_consumed(&self) -> Result<(), FlowError> {
        match self.ops.iter().find(|n| !n.op.kind.is_sink() && n.outs.is_empty()) {
            Some(n) => Err(FlowError::DanglingOutput(n.op.name.clone())),
            None => Ok(()),
        }
    }

    // ---- requirement traceability ---------------------------------------------

    /// Stamps a requirement onto every operation (a freshly interpreted
    /// partial flow serves exactly one requirement).
    pub fn stamp_requirement(&mut self, req: &str) {
        for op in self.ops_mut() {
            op.satisfies.insert(req.to_string());
        }
    }

    /// The union of requirement IDs across operations.
    pub fn satisfied_requirements(&self) -> ReqSet {
        let mut out = ReqSet::new();
        for op in self.ops() {
            out.extend(op.satisfies.iter().cloned());
        }
        out
    }

    /// Removes a requirement everywhere and prunes operations that no longer
    /// serve any requirement. Unary ops in the middle of a surviving chain
    /// cannot become orphaned because satisfier sets only shrink toward the
    /// sinks (an op serves every requirement its downstream loaders serve);
    /// pruning therefore removes complete sub-branches, and on such a flow
    /// every surviving operation keeps its inputs
    /// ([`Retraction::lost_inputs`] stays empty).
    pub fn retract_requirement(&mut self, req: &str) -> Retraction {
        let mut changed = false;
        for op in self.ops_mut() {
            changed |= op.satisfies.remove(req);
        }
        // Ascending, like `ops`: membership is a binary search, so the edge
        // list is filtered in one pass however many operations died.
        let dead: Vec<OpId> = self.ops().filter(|o| o.satisfies.is_empty()).map(|o| o.id).collect();
        if dead.is_empty() {
            return Retraction { changed, ..Retraction::default() };
        }
        let is_dead = |id: &OpId| dead.binary_search(id).is_ok();
        let (mut lost_consumers, mut lost_inputs) = (Vec::new(), Vec::new());
        self.edges.retain(|(f, t)| match (is_dead(f), is_dead(t)) {
            (false, false) => true,
            (false, true) => {
                lost_consumers.push(*f);
                false
            }
            (true, false) => {
                lost_inputs.push(*t);
                false
            }
            (true, true) => false,
        });
        let pruned = self.ops.extract_if(.., |n| n.op.satisfies.is_empty()).map(|n| n.op).collect();
        for ids in [&mut lost_consumers, &mut lost_inputs] {
            ids.sort_unstable();
            ids.dedup();
        }
        for &id in &lost_consumers {
            self.node_mut(id).outs.retain(|o| !is_dead(o));
        }
        for &id in &lost_inputs {
            self.node_mut(id).ins.retain(|i| !is_dead(i));
        }
        Retraction { changed: true, pruned, lost_consumers, lost_inputs }
    }

    /// Removes a unary operation and bridges its input to its consumers
    /// (used by the equivalence-rule engine).
    pub fn remove_bridging(&mut self, id: OpId) {
        let inputs = self.inputs_of(id);
        assert!(inputs.len() <= 1, "remove_bridging only handles unary or source ops");
        let input = inputs.first().copied();
        self.detach(id, input);
        self.remove_op_entry(id);
    }

    /// Renames an operation, keeping names unique.
    pub fn rename_op(&mut self, id: OpId, name: impl Into<String>) -> Result<(), FlowError> {
        let name = name.into();
        if self.ops().any(|o| o.name == name && o.id != id) {
            return Err(FlowError::DuplicateName(name));
        }
        debug_assert!(self.journal.is_none(), "renames are not journaled");
        self.op_mut(id).name = name;
        Ok(())
    }

    // ---- journaled edit primitives (the rule and rewrite engines) -------------

    fn log(&mut self, edit: Edit) {
        if let Some(journal) = &mut self.journal {
            journal.push(edit);
        }
    }

    /// Starts recording every structural edit until
    /// [`take_journal`](Self::take_journal). Edits that are not structural
    /// (the flow's name, [`op_mut`](Self::op_mut) on an operation that
    /// existed before, [`ops_mut`](Self::ops_mut), renames, requirement
    /// retraction) are not recorded and must not happen meanwhile.
    pub fn begin_journal(&mut self) {
        debug_assert!(self.journal.is_none(), "journals do not nest");
        self.journal = Some(Vec::new());
    }

    /// Stops recording and returns the edits since
    /// [`begin_journal`](Self::begin_journal) (none if no journal was open).
    pub fn take_journal(&mut self) -> Journal {
        Journal(self.journal.take().unwrap_or_default())
    }

    /// Undoes a journal: replays its inverse edits newest first, leaving the
    /// flow exactly as it was when the journal was opened.
    pub fn revert(&mut self, journal: Journal) {
        debug_assert!(self.journal.is_none(), "reverting is not itself journaled");
        for edit in journal.0.into_iter().rev() {
            match edit {
                Edit::OpAdded { id } => {
                    let node = self.ops.pop().expect("the added operation is still there");
                    debug_assert!(node.op.id == id && node.ins.is_empty() && node.outs.is_empty());
                    self.next_id = id.0;
                }
                Edit::OpRemoved { pos, op } => self.ops.insert(pos, Node { op, ins: Vec::new(), outs: Vec::new() }),
                Edit::Kind { id, old } => self.op_mut(id).kind = old,
                Edit::Op { old } => {
                    let id = old.id;
                    *self.op_mut(id) = old;
                }
                Edit::EdgeInserted { pos, .. } => {
                    self.remove_edge(pos);
                }
                Edit::EdgeRemoved { pos, edge } => self.insert_edge(pos, edge),
                Edit::EdgeSet { pos, old, .. } => self.set_edge(pos, old),
            }
        }
    }

    /// The ordinal of `edges[pos]` among its source's out-edges and among its
    /// target's in-edges: how many earlier edges share the endpoint. `others`
    /// is how many *other* out-edges the source and in-edges the target have;
    /// the edge list is only scanned when the answer is not plain from that.
    fn ordinals(&self, pos: usize, others: (usize, usize)) -> (usize, usize) {
        if pos + 1 == self.edges.len() {
            // The last edge overall comes after all the others.
            return others;
        }
        if others == (0, 0) {
            return (0, 0);
        }
        let (f, t) = self.edges[pos];
        self.edges[..pos]
            .iter()
            .fold((0, 0), |(out, inp), e| (out + usize::from(e.0 == f), inp + usize::from(e.1 == t)))
    }

    /// Enters `edges[pos]` into the adjacency index.
    fn link(&mut self, pos: usize) {
        let (f, t) = self.edges[pos];
        let (out, inp) = self.ordinals(pos, (self.outputs_of(f).len(), self.inputs_of(t).len()));
        self.node_mut(f).outs.insert(out, t);
        self.node_mut(t).ins.insert(inp, f);
    }

    /// Takes `edges[pos]` out of the adjacency index.
    fn unlink(&mut self, pos: usize) {
        let (f, t) = self.edges[pos];
        let (out, inp) = self.ordinals(pos, (self.outputs_of(f).len() - 1, self.inputs_of(t).len() - 1));
        self.node_mut(f).outs.remove(out);
        self.node_mut(t).ins.remove(inp);
    }

    /// Inserts `edge` at position `pos` of the edge list.
    pub(crate) fn insert_edge(&mut self, pos: usize, edge: (OpId, OpId)) {
        self.edges.insert(pos, edge);
        self.link(pos);
        self.log(Edit::EdgeInserted { pos, edge });
    }

    /// Removes the edge at position `pos` of the edge list.
    pub(crate) fn remove_edge(&mut self, pos: usize) -> (OpId, OpId) {
        self.unlink(pos);
        let edge = self.edges.remove(pos);
        self.log(Edit::EdgeRemoved { pos, edge });
        edge
    }

    /// Rewires the edge at position `pos` in place.
    pub(crate) fn set_edge(&mut self, pos: usize, new: (OpId, OpId)) {
        let old = self.edges[pos];
        if old == new {
            return;
        }
        self.unlink(pos);
        self.edges[pos] = new;
        self.link(pos);
        self.log(Edit::EdgeSet { pos, old, new });
    }

    /// Takes `id` out of the graph without removing its entry: its input
    /// edges are dropped, its output edges are re-pointed to `heir` in place
    /// (so consumers keep their positional input order — left/right of
    /// joins) or dropped when there is no heir.
    pub(crate) fn detach(&mut self, id: OpId, heir: Option<OpId>) {
        let node = self.node(id);
        let mut left = node.ins.len() + node.outs.len();
        let mut pos = 0;
        while left > 0 && pos < self.edges.len() {
            let (f, t) = self.edges[pos];
            left -= usize::from(f == id) + usize::from(t == id);
            match heir {
                Some(heir) if f == id && t != id => {
                    self.set_edge(pos, (heir, t));
                    pos += 1;
                }
                _ if f == id || t == id => {
                    self.remove_edge(pos);
                }
                _ => pos += 1,
            }
        }
    }

    /// Position of the first edge `from → to` (parallel copies exist when
    /// both inputs of a binary operation are the same op).
    pub(crate) fn edge_pos(&self, from: OpId, to: OpId) -> Option<usize> {
        self.edges.iter().position(|e| *e == (from, to))
    }

    /// Replaces an operation's kind.
    pub(crate) fn set_kind(&mut self, id: OpId, kind: OpKind) {
        let old = std::mem::replace(&mut self.op_mut(id).kind, kind);
        self.log(Edit::Kind { id, old });
    }

    /// [`op_mut`](Self::op_mut) that first snapshots the operation into an
    /// open journal.
    pub fn op_mut_journaled(&mut self, id: OpId) -> &mut Operation {
        if self.journal.is_some() {
            let old = self.op(id).clone();
            self.log(Edit::Op { old });
        }
        self.op_mut(id)
    }

    /// Removes an operation entry; its edges must already be gone or rewired.
    pub(crate) fn remove_op_entry(&mut self, id: OpId) {
        let pos = self.pos(id).expect("operation id belongs to this flow");
        let node = self.ops.remove(pos);
        debug_assert!(node.ins.is_empty() && node.outs.is_empty(), "edges are rewired before the entry goes");
        self.log(Edit::OpRemoved { pos, op: node.op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;
    use crate::ops::{AggSpec, JoinKind};
    use crate::schema::{ColType, Column};

    fn lineitem() -> OpKind {
        OpKind::Datastore {
            datastore: "lineitem".into(),
            schema: Schema::new(vec![
                Column::new("l_orderkey", ColType::Integer),
                Column::new("l_extendedprice", ColType::Decimal),
                Column::new("l_discount", ColType::Decimal),
            ]),
        }
    }

    fn orders() -> OpKind {
        OpKind::Datastore {
            datastore: "orders".into(),
            schema: Schema::new(vec![
                Column::new("o_orderkey", ColType::Integer),
                Column::new("o_totalprice", ColType::Decimal),
            ]),
        }
    }

    /// lineitem → select → join(orders) → aggregate → load
    fn sample_flow() -> Flow {
        let mut f = Flow::new("demo");
        let ds = f.add_op("DATASTORE_Lineitem", lineitem()).unwrap();
        let sel = f
            .append(ds, "SEL_discount", OpKind::Selection { predicate: parse_expr("l_discount > 0.01").unwrap() })
            .unwrap();
        let ord = f.add_op("DATASTORE_Orders", orders()).unwrap();
        let join = f
            .add_op(
                "JOIN_ord",
                OpKind::Join {
                    kind: JoinKind::Inner,
                    left_on: vec!["l_orderkey".into()],
                    right_on: vec!["o_orderkey".into()],
                },
            )
            .unwrap();
        f.connect(sel, join).unwrap();
        f.connect(ord, join).unwrap();
        let agg = f
            .append(
                join,
                "AGG_rev",
                OpKind::Aggregation {
                    group_by: vec!["o_orderkey".into()],
                    aggregates: vec![AggSpec::new("SUM", parse_expr("l_extendedprice").unwrap(), "revenue")],
                },
            )
            .unwrap();
        f.append(agg, "LOAD_fact", OpKind::Loader { table: "fact_revenue".into(), key: vec![] }).unwrap();
        f
    }

    #[test]
    fn builds_and_validates() {
        let f = sample_flow();
        assert_eq!(f.op_count(), 6);
        f.validate().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut f = Flow::new("x");
        f.add_op("A", lineitem()).unwrap();
        assert_eq!(f.add_op("A", orders()), Err(FlowError::DuplicateName("A".into())));
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut f = Flow::new("x");
        let a = f.add_op("A", lineitem()).unwrap();
        let b = f.append(a, "B", OpKind::Distinct).unwrap();
        assert!(matches!(f.connect(a, b), Err(FlowError::DuplicateEdge { .. })));
    }

    #[test]
    fn topo_order_respects_edges() {
        let f = sample_flow();
        let order = f.topo_order().unwrap();
        let pos = |name: &str| order.iter().position(|&id| f.op(id).name == name).unwrap();
        assert!(pos("DATASTORE_Lineitem") < pos("SEL_discount"));
        assert!(pos("SEL_discount") < pos("JOIN_ord"));
        assert!(pos("DATASTORE_Orders") < pos("JOIN_ord"));
        assert!(pos("AGG_rev") < pos("LOAD_fact"));
    }

    #[test]
    fn cycles_are_detected() {
        let mut f = Flow::new("cyc");
        let a = f.add_op("A", lineitem()).unwrap();
        let b = f.append(a, "B", OpKind::Distinct).unwrap();
        let c = f.append(b, "C", OpKind::Distinct).unwrap();
        f.connect(c, b).unwrap();
        assert_eq!(f.topo_order(), Err(FlowError::Cycle));
    }

    #[test]
    fn schema_propagation_produces_expected_shapes() {
        let f = sample_flow();
        let schemas = f.schemas().unwrap();
        let join = f.id_by_name("JOIN_ord").unwrap();
        assert_eq!(schemas[&join].len(), 5);
        let agg = f.id_by_name("AGG_rev").unwrap();
        assert_eq!(schemas[&agg].names().collect::<Vec<_>>(), ["o_orderkey", "revenue"]);
    }

    #[test]
    fn join_input_order_is_edge_insertion_order() {
        let f = sample_flow();
        let join = f.id_by_name("JOIN_ord").unwrap();
        let inputs = f.inputs_of(join);
        assert_eq!(f.op(inputs[0]).name, "SEL_discount", "left input first");
        assert_eq!(f.op(inputs[1]).name, "DATASTORE_Orders");
    }

    #[test]
    fn invalid_schema_reference_is_reported_with_op_name() {
        let mut f = Flow::new("bad");
        let ds = f.add_op("DS", lineitem()).unwrap();
        let sel = f.append(ds, "SEL", OpKind::Selection { predicate: parse_expr("ghost > 1").unwrap() }).unwrap();
        f.append(sel, "LOAD", OpKind::Loader { table: "t".into(), key: vec![] }).unwrap();
        match f.validate() {
            Err(FlowError::InvalidOp { op, detail }) => {
                assert_eq!(op, "SEL");
                assert!(detail.contains("ghost"));
            }
            other => panic!("expected InvalidOp, got {other:?}"),
        }
    }

    #[test]
    fn dangling_output_detected() {
        let mut f = Flow::new("dangling");
        let ds = f.add_op("DS", lineitem()).unwrap();
        f.append(ds, "SEL", OpKind::Selection { predicate: parse_expr("l_discount > 0").unwrap() }).unwrap();
        assert!(matches!(f.validate(), Err(FlowError::DanglingOutput(n)) if n == "SEL"));
    }

    #[test]
    fn upstream_and_downstream_sets() {
        let f = sample_flow();
        let join = f.id_by_name("JOIN_ord").unwrap();
        let up = f.upstream_of(join);
        assert_eq!(up.len(), 3);
        let ds = f.id_by_name("DATASTORE_Lineitem").unwrap();
        let down = f.downstream_of(ds);
        assert_eq!(down.len(), 4);
    }

    #[test]
    fn stamp_and_retract_requirements() {
        let mut f = sample_flow();
        f.stamp_requirement("IR1");
        assert_eq!(f.satisfied_requirements().len(), 1);
        let retraction = f.retract_requirement("IR1");
        assert!(retraction.changed);
        assert_eq!(retraction.pruned.len(), 6);
        assert_eq!(f.op_count(), 0);
        assert_eq!(f.edge_count(), 0);
    }

    #[test]
    fn retract_keeps_shared_prefix() {
        let mut f = sample_flow();
        f.stamp_requirement("IR1");
        // IR2 branches off the selection into its own loader.
        let sel = f.id_by_name("SEL_discount").unwrap();
        let extra = f.append(sel, "LOAD_extra", OpKind::Loader { table: "t2".into(), key: vec![] }).unwrap();
        f.op_mut(extra).satisfies.insert("IR2".into());
        // IR2 also relies on everything upstream of its loader.
        let ups: Vec<OpId> = f.upstream_of(extra).into_iter().collect();
        for id in ups {
            f.op_mut(id).satisfies.insert("IR2".into());
        }
        let before = f.op_count();
        let retraction = f.retract_requirement("IR2");
        assert_eq!(f.op_count(), before - 1, "only IR2's private loader disappears");
        assert_eq!(retraction.pruned.iter().map(|o| o.id).collect::<Vec<_>>(), [extra]);
        assert_eq!(retraction.lost_consumers, [sel], "the selection lost the loader");
        assert!(retraction.lost_inputs.is_empty(), "survivors keep their inputs");
        f.validate().unwrap();
        assert!(f.op_by_name("LOAD_extra").is_none());
    }

    #[test]
    fn remove_bridging_reconnects() {
        let mut f = sample_flow();
        let sel = f.id_by_name("SEL_discount").unwrap();
        f.remove_bridging(sel);
        f.validate().unwrap();
        let ds = f.id_by_name("DATASTORE_Lineitem").unwrap();
        let join = f.id_by_name("JOIN_ord").unwrap();
        assert!(f.edges().contains(&(ds, join)));
        // Left/right input order of the join must survive the bridge.
        let inputs = f.inputs_of(join);
        assert_eq!(f.op(inputs[0]).name, "DATASTORE_Lineitem", "bridged input stays in the left slot");
        assert_eq!(f.op(inputs[1]).name, "DATASTORE_Orders");
    }

    #[test]
    fn bridged_join_inputs_keep_schema_validity() {
        // After bridging, the join still type-checks (schema unchanged by
        // selection removal).
        let mut f = sample_flow();
        let sel = f.id_by_name("SEL_discount").unwrap();
        f.remove_bridging(sel);
        f.schemas().unwrap();
    }

    #[test]
    fn rename_enforces_uniqueness() {
        let mut f = sample_flow();
        let sel = f.id_by_name("SEL_discount").unwrap();
        assert!(f.rename_op(sel, "DATASTORE_Orders").is_err());
        f.rename_op(sel, "SEL_renamed").unwrap();
        assert!(f.op_by_name("SEL_renamed").is_some());
    }

    /// The adjacency index against its definition: a scan of the edge list.
    fn assert_index_exact(f: &Flow) {
        for op in f.ops() {
            let ins: Vec<OpId> = f.edges().iter().filter(|(_, t)| *t == op.id).map(|(from, _)| *from).collect();
            let outs: Vec<OpId> = f.edges().iter().filter(|(from, _)| *from == op.id).map(|(_, t)| *t).collect();
            assert_eq!(f.inputs_of(op.id), ins, "inputs of {} in edge order", op.name);
            assert_eq!(f.outputs_of(op.id), outs, "outputs of {} in edge order", op.name);
        }
        assert!(f.edges().iter().all(|(from, t)| f.contains(*from) && f.contains(*t)), "no dangling edge");
    }

    #[test]
    fn adjacency_index_survives_every_mutator_and_reverts_exactly() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut pick = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        for round in 0..40 {
            // A layered random DAG; kinds do not matter to the index.
            let mut f = Flow::new("idx");
            let mut ids = Vec::new();
            for i in 0..12 {
                let id = f.add_op(format!("OP{i}"), OpKind::Distinct).unwrap();
                f.op_mut(id).satisfies.insert(format!("IR{}", i % 3));
                for _ in 0..pick(3).min(ids.len()) {
                    let _ = f.connect(ids[pick(ids.len())], id);
                }
                ids.push(id);
            }
            assert_index_exact(&f);
            for step in 0..60 {
                let live: Vec<OpId> = f.ops().map(|o| o.id).collect();
                if live.is_empty() {
                    break;
                }
                let before = f.clone();
                f.begin_journal();
                let some_op = live[pick(live.len())];
                match pick(8) {
                    0 => {
                        let id = f.add_op(format!("NEW{round}_{step}"), OpKind::Union).unwrap();
                        let _ = f.connect(some_op, id);
                    }
                    1 if f.inputs_of(some_op).len() <= 1 => f.remove_bridging(some_op),
                    2 if f.edge_count() > 0 => {
                        f.remove_edge(pick(f.edge_count()));
                    }
                    3 if f.edge_count() > 0 => {
                        let (from, to) = f.edges()[pick(f.edge_count())];
                        let id = f.add_op(format!("MID{round}_{step}"), OpKind::Distinct).unwrap();
                        crate::rules::splice_on_edge(&mut f, id, from, to);
                    }
                    // Edges only ever point from a lower to a higher id, so
                    // the graph stays a DAG; parallel edges are welcome.
                    4 if f.edge_count() > 0 => {
                        let pos = pick(f.edge_count());
                        let to = f.edges()[pos].1;
                        if some_op < to {
                            f.set_edge(pos, (some_op, to));
                        }
                    }
                    5 => {
                        let other = live[pick(live.len())];
                        if some_op < other {
                            f.insert_edge(pick(f.edge_count() + 1), (some_op, other));
                        }
                    }
                    6 => {
                        let heir = live[pick(live.len())];
                        f.detach(some_op, (heir < some_op).then_some(heir));
                    }
                    7 => {
                        crate::rules::dedupe(&mut f);
                    }
                    _ => {}
                }
                assert_index_exact(&f);
                let journal = f.take_journal();
                if pick(2) == 0 {
                    f.revert(journal);
                    assert_index_exact(&f);
                    assert_eq!(f, before, "revert restores op order, edge order and next_id");
                    assert_eq!(f.next_id, before.next_id);
                }
            }
            // The one bulk mutator is not journaled.
            f.retract_requirement(&format!("IR{}", round % 3));
            assert_index_exact(&f);
        }
    }
}
