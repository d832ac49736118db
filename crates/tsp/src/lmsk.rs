//! The LMSK (Little–Murty–Sweeney–Karel) branch-and-bound algorithm for
//! TSP, as used by the paper's application (Section 4): the search tree
//! is built dynamically from the initial problem at the root; children
//! are generated by selecting an edge (include/exclude branching on a
//! reduced cost matrix); leaves are pruned against the best tour found
//! so far.
//!
//! This module is *pure* (no simulator calls): the parallel solvers
//! charge simulated time for expansions explicitly, and the same code
//! backs the sequential baseline and the native benchmarks.

use std::cell::Cell;
use std::mem;

use crate::instance::{TspInstance, INF};

/// A subproblem (one node of the search tree): the part of the instance
/// that is still undecided. At level `L` of an `n`-city search that is
/// the `k × k` reduced matrix over the `k = n - L` cities that still
/// lack an out-edge (rows) and the `k` that still lack an in-edge
/// (columns) — the cells of committed rows and columns are never read
/// again, so a node does not carry them.
///
/// All of it is one buffer of words, one allocation beside the node's
/// box: `[cells | rows | cols | row_start | col_end | edges]`.
///
/// * `cells`: the reduced costs of the live cells, row-major `k × k`;
///   forbidden cells are `INF` or above. Always fully reduced: every
///   row and every column holds a zero.
/// * `rows[r]` / `cols[c]`: the city a matrix row / column stands for,
///   both ascending, so scanning the dense matrix visits cities in the
///   order a scan of the full matrix would and every tie breaks the
///   same way.
/// * `row_start[r]`: a live row's city ends a path fragment, and this
///   is the city that fragment starts at; `col_end[c]`: a live
///   column's city starts one, and this is where it ends.
/// * `edges`: the `L` committed edges as `from, to` pairs.
#[derive(Debug, Clone)]
pub struct SubProblem {
    /// Lower bound on any tour refining this subproblem.
    pub bound: u32,
    /// Number of edges already included.
    pub level: u16,
    n: u16,
    /// How many panics have caught this node in a searcher's hands since
    /// a queue step last queued it; fresh children carry their parent's.
    pub(crate) attempts: u32,
    /// `k² + 4k + 2L` words, laid out as above.
    data: Vec<u32>,
    /// The next node of its file while the node is in a [`NodePool`];
    /// `None` while it is in the search.
    next: Option<Node>,
}

/// Result of expanding a subproblem.
#[derive(Debug, Clone)]
pub enum Expansion {
    /// The subproblem completed into a full tour.
    Tour {
        /// Tour cost.
        cost: u32,
        /// The tour's `n` edges.
        edges: Vec<(u16, u16)>,
    },
    /// Include/exclude children (1 or 2; infeasible children dropped).
    Children(Vec<SubProblem>),
    /// No feasible completion exists.
    Dead,
}

/// What [`SubProblem::expand_pooled`] made of a node.
pub(crate) enum Expanded {
    /// The node completed into a full tour, and is as it was.
    Tour {
        /// Tour cost.
        cost: u32,
        /// The tour's `n` edges.
        edges: Vec<(u16, u16)>,
    },
    /// The node branched into one child or two. Queue `include` first,
    /// then the node itself if `exclude` says it has become its exclude
    /// child (it is as it was, and of no further use, if not).
    Branched {
        /// The include child, unless it is infeasible.
        include: Option<Node>,
        /// Whether the node is now its own exclude child.
        exclude: bool,
    },
    /// No feasible completion exists; the node is as it was.
    Dead,
}

/// The LMSK branching choice: a zero cell, and what its row and its
/// column would have to give up without it.
struct BranchCell {
    row: usize,
    col: usize,
    /// Smallest entry of the row outside `col`.
    row_penalty: u32,
    /// Smallest entry of the column outside `row`.
    col_penalty: u32,
}

impl BranchCell {
    /// How far excluding the cell raises the bound.
    fn penalty(&self) -> u32 {
        self.row_penalty.saturating_add(self.col_penalty).min(INF)
    }
}

/// Reduce every row, then every column, of the dense `k × k` matrix
/// `cells`; returns `bound` plus the total reduction, or `INF` if some
/// row or column has no feasible cell. `col_min` is `k` words of
/// scratch.
fn reduce(cells: &mut [u32], k: usize, bound: u32, col_min: &mut [u32]) -> u32 {
    let mut total = bound;
    col_min.fill(INF);
    for row in cells.chunks_exact_mut(k) {
        let m = row.iter().fold(INF, |m, &v| m.min(v));
        if m >= INF {
            return INF;
        }
        if m > 0 {
            for v in row.iter_mut() {
                if *v < INF {
                    *v -= m;
                }
            }
            total = total.saturating_add(m);
        }
        for (cm, &v) in col_min.iter_mut().zip(row.iter()) {
            *cm = (*cm).min(v);
        }
    }
    if col_min.iter().any(|&m| m >= INF) {
        return INF;
    }
    if col_min.iter().any(|&m| m > 0) {
        for row in cells.chunks_exact_mut(k) {
            for (v, &m) in row.iter_mut().zip(col_min.iter()) {
                if *v < INF {
                    *v -= m;
                }
            }
        }
        total = col_min.iter().fold(total, |t, &m| t.saturating_add(m));
    }
    total.min(INF)
}

/// What a line with `zeros` zeros, whose least entry above zero is
/// `above + 1`, gives up without one of its zeros: nothing if it has
/// another, that entry (at most `INF`) if not.
fn line_penalty(zeros: u32, above: u32) -> u32 {
    if zeros > 1 {
        0
    } else {
        above.saturating_add(1).min(INF)
    }
}

/// Where `line` holds a zero other than at `skip`, numbered as in the
/// line without `skip`.
fn zeros_without(line: impl Iterator<Item = u32>, skip: usize) -> impl Iterator<Item = usize> {
    let zeros = line.enumerate().filter(move |&(i, v)| v == 0 && i != skip);
    zeros.map(move |(i, _)| i - usize::from(i > skip))
}

/// Reduce one line of a matrix, the `len` cells `cells[0]`,
/// `cells[step]`, …: subtract its least entry from its feasible cells
/// and return it, or `None` if the line has no feasible cell.
fn reduce_line(cells: &mut [u32], step: usize, len: usize) -> Option<u32> {
    let m = cells.iter().step_by(step).take(len).fold(INF, |m, &v| m.min(v));
    if m >= INF {
        return None;
    }
    if m > 0 {
        for v in cells.iter_mut().step_by(step).take(len).filter(|v| **v < INF) {
            *v -= m;
        }
    }
    Some(m)
}

impl SubProblem {
    /// The root subproblem: the full instance, reduced.
    pub fn root(inst: &TspInstance) -> SubProblem {
        *SubProblem::root_in(inst, &mut NodePool::default())
    }

    /// The root subproblem, in a node from `pool`.
    pub(crate) fn root_in(inst: &TspInstance, pool: &mut NodePool) -> Node {
        let n = inst.n();
        let mut root = pool.root(n * n + 4 * n);
        root.data.extend_from_slice(inst.matrix());
        root.bound = reduce(&mut root.data, n, 0, &mut vec![0; n]);
        root.data.extend((0..4).flat_map(|_| 0..n as u32));
        (root.level, root.n, root.attempts) = (0, n as u16, 0);
        root
    }

    /// Live rows (= live columns), `k`.
    #[inline]
    fn k(&self) -> usize {
        (self.n - self.level) as usize
    }

    /// The reduced matrix, `k × k`.
    #[inline]
    fn cells(&self) -> &[u32] {
        let k = self.k();
        &self.data[..k * k]
    }

    /// The `t`-th `k`-long city table after the cells.
    #[inline]
    fn table(&self, t: usize) -> &[u32] {
        let k = self.k();
        &self.data[k * k + t * k..k * k + (t + 1) * k]
    }

    fn rows(&self) -> &[u32] {
        self.table(0)
    }

    fn cols(&self) -> &[u32] {
        self.table(1)
    }

    fn row_start(&self) -> &[u32] {
        self.table(2)
    }

    fn col_end(&self) -> &[u32] {
        self.table(3)
    }

    /// Included edges, as the `2L` words they are stored in.
    fn edge_words(&self) -> &[u32] {
        let k = self.k();
        &self.data[k * k + 4 * k..]
    }

    /// Included edges.
    fn edges(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.edge_words().chunks_exact(2).map(|e| (e[0] as u16, e[1] as u16))
    }

    /// Number of matrix cells still alive — the per-expansion work unit
    /// used for simulated cost charging.
    pub fn work_cells(&self) -> u64 {
        self.k().pow(2) as u64
    }

    /// The LMSK branching choice: the zero cell whose exclusion would
    /// raise the bound the most (max row-min + col-min penalty), the
    /// first such in row-major order.
    ///
    /// A zero cell's penalty is what its row and its column hold
    /// without it. The node is fully reduced, so every line holds a
    /// zero, and a line gives up 0 if it holds two and its least entry
    /// above zero if it holds one. The one pass over the cells counts
    /// each line's zeros, finds that entry (as `v - 1`, which wraps a
    /// zero past every other value) and lists the zeros in row-major
    /// order: it writes every cell's position into the list and moves
    /// past it only for a zero. A position is `row << 16 | col`, which
    /// orders as row-major positions do, since `k` fits in 16 bits. The
    /// choice is then the maximum of `(penalty + 1) << 32 | !position`
    /// over the listed zeros alone, the first zero of maximal penalty.
    /// Neither loop branches on a cell.
    ///
    /// `scratch` is `k² + 3k` words: three line tables, and a zero list
    /// as long as the matrix, since every cell may be a zero.
    fn choose_branch_cell(&self, scratch: &mut [u32]) -> Option<BranchCell> {
        let k = self.k();
        let (row_penalty, rest) = scratch.split_at_mut(k);
        let (col_zeros, rest) = rest.split_at_mut(k);
        let (col_penalty, zeros) = rest.split_at_mut(k);
        col_zeros.fill(0);
        col_penalty.fill(u32::MAX);
        let mut listed = 0;
        for (r, (row, penalty)) in self.cells().chunks_exact(k).zip(row_penalty.iter_mut()).enumerate() {
            let (first, mut above) = (listed, u32::MAX);
            for (c, ((&v, cz), ca)) in row.iter().zip(col_zeros.iter_mut()).zip(col_penalty.iter_mut()).enumerate() {
                let zero = v == 0;
                above = above.min(v.wrapping_sub(1));
                *cz += u32::from(zero);
                *ca = (*ca).min(v.wrapping_sub(1));
                zeros[listed] = ((r << 16) | c) as u32;
                listed += usize::from(zero);
            }
            *penalty = line_penalty((listed - first) as u32, above);
        }
        for (penalty, &zeros) in col_penalty.iter_mut().zip(col_zeros.iter()) {
            *penalty = line_penalty(zeros, *penalty);
        }
        let cell = |position: u32| ((position >> 16) as usize, (position & 0xffff) as usize);
        let best = zeros[..listed].iter().fold(0u64, |best, &position| {
            let (row, col) = cell(position);
            // Both penalties are at most `INF`: neither sum wraps.
            let penalty = (row_penalty[row] + col_penalty[col]).min(INF) + 1;
            best.max((u64::from(penalty) << 32) | u64::from(!position))
        });
        (best != 0).then(|| {
            let (row, col) = cell(!(best as u32));
            BranchCell {
                row,
                col,
                row_penalty: row_penalty[row],
                col_penalty: col_penalty[col],
            }
        })
    }

    /// Expand into children (or a finished tour): a clone of this node,
    /// expanded in place.
    pub fn expand(&self) -> Expansion {
        let mut node = self.clone();
        match node.expand_pooled(&mut Vec::new(), &mut NodePool::default()) {
            Expanded::Tour { cost, edges } => Expansion::Tour { cost, edges },
            Expanded::Branched { include, exclude } => Expansion::Children(
                include.map(|c| *c).into_iter().chain(exclude.then_some(node)).collect(),
            ),
            Expanded::Dead => Expansion::Dead,
        }
    }

    /// [`SubProblem::expand_pooled`] with an empty pool: the include
    /// child is a new node.
    #[cfg(test)]
    pub(crate) fn expand_in_place(&mut self, scratch: &mut Vec<u32>) -> Expanded {
        self.expand_pooled(scratch, &mut NodePool::default())
    }

    /// The one expansion, in place: build the include child from this
    /// node, then turn the node into its own exclude child. The include
    /// child is built in a node from `pool`, and is the only node made.
    /// `scratch` and `pool` are the caller's to keep between calls; the
    /// caller hands back to the pool every node it is done with.
    pub(crate) fn expand_pooled(&mut self, scratch: &mut Vec<u32>, pool: &mut NodePool) -> Expanded {
        if self.bound >= INF {
            return Expanded::Dead;
        }
        let k = self.k();
        if k == 2 {
            return self.complete_tour();
        }
        // The branch choice writes the scratch before it reads it.
        if scratch.len() < k * k + 3 * k {
            scratch.resize(k * k + 3 * k, 0);
        }
        let Some(cell) = self.choose_branch_cell(&mut scratch[..k * k + 3 * k]) else {
            return Expanded::Dead;
        };
        // The include child reads the node as its parent: make it first.
        let include = self.include_child(&cell, pool);
        let exclude = self.become_exclude_child(&cell);
        if include.is_none() && !exclude {
            return Expanded::Dead;
        }
        Expanded::Branched { include, exclude }
    }

    /// Include child: commit the edge `rows[cell.row] -> cols[cell.col]`.
    /// The child is this node minus that row and that column, written
    /// straight into the one buffer of a node from `pool`, with the edge
    /// that would close a premature subtour forbidden, and then reduced
    /// where it can need it. This node is fully reduced, so a line of the
    /// child lacks a zero only if it lost one: a row whose only zero sat
    /// in the branch column, a column whose only zero sat in the branch
    /// row, and the row and the column of the newly forbidden cell. A
    /// row's reduction makes zeros and takes none away, so rows first,
    /// then columns, as `reduce` does, gives the cells and the bound that
    /// a full reduction would, and `None` exactly where it would find a
    /// line with no feasible cell; the node goes back to the pool then.
    fn include_child(&self, cell: &BranchCell, pool: &mut NodePool) -> Option<Node> {
        let (k, live) = (self.k(), self.k() - 1);
        let level = self.level + 1;
        let mut child = pool.node(level, live * live + 4 * live + 2 * usize::from(level));
        let data = &mut child.data;
        // One pass over the parent's buffer: its cells, tables and edges
        // in order, less the branch row, the branch column's cells and
        // the branch row's and column's table entries. What lies between
        // two of those gaps is one copy.
        let (row, col, kk) = (cell.row, cell.col, k * k);
        let cell_gaps = (0..k).map(|r| if r == row { r * k..(r + 1) * k } else { r * k + col..r * k + col + 1 });
        let table_gaps = [row, k + col, 2 * k + row, 3 * k + col].map(|t| kk + t..kk + t + 1);
        let mut from = 0;
        for gap in cell_gaps.chain(table_gaps) {
            data.extend_from_slice(&self.data[from..gap.start]);
            from = gap.end;
        }
        data.extend_from_slice(&self.data[from..]);
        data.extend([self.rows()[row], self.cols()[col]]);

        // Merge the two path fragments the edge joins and forbid the
        // edge that would close the merged fragment into a premature
        // subtour. The fragment's end has no out-edge and its start no
        // in-edge, so both are still live; `k >= 3` here, so the merged
        // fragment is never the whole tour.
        let (start, end) = (self.row_start()[row], self.col_end()[col]);
        let (cells, ids) = data.split_at_mut(live * live);
        let end_row = ids[..live].binary_search(&end).expect("a fragment's end is a live row");
        let start_col = ids[live..2 * live]
            .binary_search(&start)
            .expect("a fragment's start is a live column");
        ids[2 * live + end_row] = start;
        ids[3 * live + start_col] = end;
        let forbidden = mem::replace(&mut cells[end_row * live + start_col], INF);

        // Another row holds a zero in the branch column only if that
        // column holds two zeros, which is when its penalty is 0, and
        // likewise for the branch row; the forbidden cell's lines lose
        // a zero only if it was one. A line listed twice is reduced
        // once and then found holding a zero.
        let parent = self.cells();
        let mut reduced = || {
            let mut bound = self.bound;
            let branch_col = parent[col..].iter().step_by(k).copied();
            let lost_rows = (cell.col_penalty == 0).then(|| zeros_without(branch_col, row));
            for r in lost_rows.into_iter().flatten().chain((forbidden == 0).then_some(end_row)) {
                bound = bound.saturating_add(reduce_line(&mut cells[r * live..], 1, live)?);
            }
            let branch_row = parent[row * k..(row + 1) * k].iter().copied();
            let lost_cols = (cell.row_penalty == 0).then(|| zeros_without(branch_row, col));
            for c in lost_cols.into_iter().flatten().chain((forbidden == 0).then_some(start_col)) {
                bound = bound.saturating_add(reduce_line(&mut cells[c..], live, live)?);
            }
            (bound < INF).then_some(bound)
        };
        let bound = reduced();
        (child.level, child.n, child.attempts) = (level, self.n, self.attempts);
        match bound {
            Some(bound) => {
                child.bound = bound;
                Some(child)
            }
            None => {
                pool.put(child);
                None
            }
        }
    }

    /// Exclude child: forbid the branch cell; the bound rises by the
    /// penalty. This node is fully reduced, so only the branch cell's
    /// row and column lose their zero: subtracting each one's penalty
    /// is the whole reduction, made here on the node itself. Returns
    /// whether the child is feasible; the node is untouched if not.
    fn become_exclude_child(&mut self, cell: &BranchCell) -> bool {
        let bound = self.bound.saturating_add(cell.penalty());
        if bound >= INF {
            return false;
        }
        let k = self.k();
        self.bound = bound;
        let cells = &mut self.data[..k * k];
        cells[cell.row * k + cell.col] = INF;
        let row = cells[cell.row * k..(cell.row + 1) * k].iter_mut();
        for v in row.filter(|v| **v < INF) {
            *v -= cell.row_penalty;
        }
        let col = cells[cell.col..].iter_mut().step_by(k);
        for v in col.filter(|v| **v < INF) {
            *v -= cell.col_penalty;
        }
        true
    }

    /// Finish the two remaining forced assignments.
    fn complete_tour(&self) -> Expanded {
        debug_assert_eq!(self.k(), 2);
        let (cells, rows, cols) = (self.cells(), self.rows(), self.cols());
        let city = |id: u32| id as u16;
        let straight = cells[0].saturating_add(cells[3]);
        let crossed = cells[1].saturating_add(cells[2]);
        let (extra, pairs) = if straight <= crossed {
            (straight, [(rows[0], cols[0]), (rows[1], cols[1])])
        } else {
            (crossed, [(rows[0], cols[1]), (rows[1], cols[0])])
        };
        if extra >= INF {
            return Expanded::Dead;
        }
        let edges: Vec<(u16, u16)> =
            self.edges().chain(pairs.map(|(from, to)| (city(from), city(to)))).collect();
        // Validate that the edges form a single Hamiltonian cycle; the
        // fragment bookkeeping guarantees it, so this is a debug check.
        debug_assert!(is_single_cycle(&edges, self.n as usize), "LMSK produced a non-tour");
        Expanded::Tour {
            cost: self.bound.saturating_add(extra).min(INF),
            edges,
        }
    }
}

/// Whether `edges` (as `from -> to`) form one Hamiltonian cycle over `n`
/// cities.
pub fn is_single_cycle(edges: &[(u16, u16)], n: usize) -> bool {
    if edges.len() != n {
        return false;
    }
    let mut next = vec![u16::MAX; n];
    for &(a, b) in edges {
        if next[a as usize] != u16::MAX {
            return false; // duplicate out-edge
        }
        next[a as usize] = b;
    }
    let mut seen = 0usize;
    let mut c = 0u16;
    loop {
        let nx = next[c as usize];
        if nx == u16::MAX {
            return false;
        }
        seen += 1;
        c = nx;
        if c == 0 {
            break;
        }
        if seen > n {
            return false;
        }
    }
    seen == n
}

/// Statistics from a solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Subproblems expanded.
    pub expanded: u64,
    /// Children generated.
    pub generated: u64,
    /// Complete tours found.
    pub tours: u64,
    /// Subproblems pruned against the incumbent without expansion.
    pub pruned: u64,
}

/// A queued node: boxed once, where it is made, and moved by pointer
/// from then on — into a queue, out of it, through a searcher's hands,
/// and, once the search is done with it, into a [`NodePool`].
pub(crate) type Node = Box<SubProblem>;

thread_local! {
    /// The pool of the thread that calls [`solve_sequential`] or
    /// [`solve_native`](crate::solve_native): taken when a solve starts
    /// and put back when it ends, so that one solve's nodes serve the
    /// next.
    static POOL: Cell<NodePool> = const {
        Cell::new(NodePool {
            filed: Vec::new(),
            unfiled: Vec::new(),
            held: 0,
        })
    };
}

/// Nodes the search is done with, kept to be built into new ones: a
/// finished node costs no `free`, and a child built in it no `malloc`.
/// A node is made new only when the pool is empty, so a pool never
/// holds more nodes than were out at once in the largest solve it
/// served. A node keeps its buffer, and a buffer never shrinks: it is
/// replaced, by one of exactly the size needed, only when it is too
/// small for the node built in it.
///
/// Nodes are filed by the level they finished at, each level's file a
/// list threaded through the nodes themselves, so filing allocates
/// nothing. Within one instance size every node of a level is the same
/// size, so a node from its own level's file has room, and a node from
/// a shallower level's has more than enough. A terminal clear's dead
/// queue comes in unread, and its nodes are read and filed only as
/// nodes are wanted.
#[derive(Default)]
pub(crate) struct NodePool {
    /// `filed[l]`: the first node of level `l`'s file.
    filed: Vec<Option<Node>>,
    /// Nodes handed back unread — a terminal clear's dead queue — and
    /// filed only as a node is wanted.
    unfiled: Vec<Node>,
    /// Nodes held, filed or not.
    held: usize,
}

impl NodePool {
    /// This thread's pool, taken for one solve.
    pub(crate) fn of_this_thread() -> NodePool {
        POOL.take()
    }

    /// Put this pool back as this thread's, for its next solve.
    pub(crate) fn keep(self) {
        POOL.set(self);
    }

    /// How many nodes this thread's pool holds.
    #[cfg(test)]
    pub(crate) fn held_by_this_thread() -> usize {
        let pool = NodePool::of_this_thread();
        let held = pool.held;
        pool.keep();
        held
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Hand back a node the search is done with.
    pub(crate) fn put(&mut self, node: Node) {
        NodePool::file(&mut self.filed, node);
        self.held += 1;
    }

    fn file(filed: &mut Vec<Option<Node>>, mut node: Node) {
        let level = usize::from(node.level);
        if level >= filed.len() {
            filed.resize_with(level + 1, || None);
        }
        node.next = filed[level].take();
        filed[level] = Some(node);
    }

    /// Hand back every node of a queue, moved by pointer: no node is
    /// read.
    pub(crate) fn put_queue(&mut self, queue: BestFirst) {
        self.held += queue.len();
        self.unfiled.reserve(queue.len());
        self.unfiled.extend(queue.into_nodes());
    }

    /// Move every node of `other` here.
    pub(crate) fn append(&mut self, other: &mut NodePool) {
        self.unfiled.append(&mut other.unfiled);
        for file in &mut other.filed {
            while let Some(node) = NodePool::pop(file) {
                NodePool::file(&mut self.filed, node);
            }
        }
        self.held += mem::take(&mut other.held);
    }

    /// Move up to `most` nodes here from `other`: its unfiled ones
    /// first, moved unread, then filed ones, those nearest `level` first.
    pub(crate) fn borrow(&mut self, other: &mut NodePool, level: u16, most: usize) {
        let from = other.unfiled.len().saturating_sub(most);
        let unread = other.unfiled.len() - from;
        self.unfiled.extend(other.unfiled.drain(from..));
        (self.held, other.held) = (self.held + unread, other.held - unread);
        for _ in unread..most {
            let Some(node) = other.nearest(usize::from(level)) else { break };
            other.held -= 1;
            self.put(node);
        }
    }

    /// The first node of `file`, unlinked.
    fn pop(file: &mut Option<Node>) -> Option<Node> {
        let mut node = file.take()?;
        *file = node.next.take();
        Some(node)
    }

    /// A node to build a child of `level` in: the first of `level`'s
    /// file, with the unfiled nodes filed until one of `level` turns up;
    /// else the nearest shallower level's, whose buffers are larger, or
    /// else the nearest deeper level's.
    fn take(&mut self, level: usize) -> Option<Node> {
        let node = match self.filed.get_mut(level).and_then(NodePool::pop) {
            Some(node) => node,
            None => self.file_unfiled(level).or_else(|| self.nearest(level))?,
        };
        self.held -= 1;
        Some(node)
    }

    /// Read and file the unfiled nodes until one of `level` turns up.
    fn file_unfiled(&mut self, level: usize) -> Option<Node> {
        while let Some(node) = self.unfiled.pop() {
            if usize::from(node.level) == level {
                return Some(node);
            }
            NodePool::file(&mut self.filed, node);
        }
        None
    }

    /// The first node of `level`'s file, else of the nearest shallower
    /// level's, else of the nearest deeper level's.
    fn nearest(&mut self, level: usize) -> Option<Node> {
        let shallower = (0..self.filed.len().min(level + 1)).rev();
        let deeper = level + 1..self.filed.len();
        shallower.chain(deeper).find_map(|l| NodePool::pop(&mut self.filed[l]))
    }

    /// A node to build a child of `level` and `words` words in.
    fn node(&mut self, level: u16, words: usize) -> Node {
        let node = self.take(usize::from(level));
        NodePool::fit(node, level, words)
    }

    /// A node to build a root of `words` words in: the shallowest filed
    /// node, else the last unfiled one. Few nodes are of level 0, and a
    /// search for one among the unfiled would read and file a whole dead
    /// queue at once, so they are left to be read as they are wanted.
    fn root(&mut self, words: usize) -> Node {
        let node = self.nearest(0).or_else(|| self.unfiled.pop());
        self.held -= usize::from(node.is_some());
        NodePool::fit(node, 0, words)
    }

    /// `node`, its buffer emptied, or replaced by one of exactly `words`
    /// if it holds fewer; if there is none, a new node of exactly
    /// `words`. The caller sets every field.
    fn fit(node: Option<Node>, level: u16, words: usize) -> Node {
        let Some(mut node) = node else {
            return Box::new(SubProblem {
                bound: 0,
                level,
                n: 0,
                attempts: 0,
                data: Vec::with_capacity(words),
                next: None,
            });
        };
        if node.data.capacity() < words {
            node.data = Vec::with_capacity(words);
        } else {
            node.data.clear();
        }
        node
    }
}

impl Drop for NodePool {
    /// One node at a time: dropped whole, a file would free its nodes
    /// one nested call deep each.
    fn drop(&mut self) {
        for file in &mut self.filed {
            while NodePool::pop(file).is_some() {}
        }
    }
}

/// Best-first queue entry, 16 bytes: the whole ordering in one word
/// beside the node's pointer. An empty slot holds the largest key, so
/// it loses every comparison without being asked whether it is there.
struct Entry {
    /// `(bound << 32) | seq`: smallest bound first, FIFO within a bound.
    key: u64,
    node: Option<Node>,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            key: u64::MAX,
            node: None,
        }
    }
}

/// The four children of one heap node, one cache line: a level of a
/// sift reads, and at most writes, this line and no other.
#[derive(Default)]
#[repr(align(64))]
struct Siblings([Entry; 4]);

/// Where the root sits: the last slot of group 0, whose other three
/// stay empty, so that the children of the node at position `p` are
/// exactly group `p - 2` and the parent of position `p` is `p / 4 + 2`.
const ROOT: usize = 3;

/// A best-first queue of subproblems — the one queue behind the
/// sequential solvers, the simulator's `WorkQueue` and the native
/// solver's `qlock`s: a 4-ary min-heap laid out in sibling groups. The
/// sequence counter lives beside the heap, under whatever lock guards
/// the queue.
#[derive(Default)]
pub(crate) struct BestFirst {
    groups: Vec<Siblings>,
    len: usize,
    next_seq: u32,
}

impl BestFirst {
    fn slot(&mut self, position: usize) -> &mut Entry {
        &mut self.groups[position / 4].0[position % 4]
    }

    /// `node`'s entry, under the next sequence number. The caller has
    /// made sure one is left.
    fn entry(&mut self, node: Node) -> Entry {
        let key = (u64::from(node.bound) << 32) | u64::from(self.next_seq);
        self.next_seq += 1;
        Entry {
            key,
            node: Some(node),
        }
    }

    pub(crate) fn push(&mut self, node: Node) {
        if self.next_seq == u32::MAX {
            self.renumber();
        }
        let entry = self.entry(node);
        self.sift_up(entry);
    }

    /// Put `entry` in a new last slot and let it rise to its place.
    fn sift_up(&mut self, entry: Entry) {
        let mut hole = self.len + ROOT;
        self.len += 1;
        if hole / 4 == self.groups.len() {
            self.groups.push(Siblings::default());
        }
        while hole > ROOT {
            let parent = hole / 4 + 2;
            if self.slot(parent).key < entry.key {
                break;
            }
            *self.slot(hole) = mem::take(self.slot(parent));
            hole = parent;
        }
        *self.slot(hole) = entry;
    }

    /// Take the root's entry out and let `sinking` fill the root and
    /// sink from there. The queue is not empty.
    fn replace_root(&mut self, sinking: Entry) -> Entry {
        let top = mem::take(self.slot(ROOT));
        let mut hole = ROOT;
        // Groups past the last entry are empty and end the walk as a
        // group of larger keys does.
        while let Some(children) = self.groups.get_mut(hole - 2) {
            let least = (1..4).fold(0, |least, i| {
                if children.0[i].key < children.0[least].key {
                    i
                } else {
                    least
                }
            });
            if sinking.key < children.0[least].key {
                break;
            }
            let child = mem::take(&mut children.0[least]);
            let below = 4 * (hole - 2) + least;
            *self.slot(hole) = child;
            hole = below;
        }
        *self.slot(hole) = sinking;
        top
    }

    /// The root's entry, or an empty one if nothing is queued.
    fn pop_entry(&mut self) -> Entry {
        if self.len == 0 {
            return Entry::default();
        }
        self.len -= 1;
        // The last entry refills the root and sinks from there.
        let last = mem::take(self.slot(self.len + ROOT));
        if self.len == 0 {
            return last;
        }
        self.replace_root(last)
    }

    pub(crate) fn pop(&mut self) -> Option<Node> {
        self.pop_entry().node
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every queued node, taken out of the entries without reading one:
    /// the heap is complete, so the entries fill the positions from the
    /// root's on.
    fn into_nodes(mut self) -> impl Iterator<Item = Node> {
        (ROOT..ROOT + self.len).filter_map(move |position| self.slot(position).node.take())
    }

    /// The key at the root, or the largest there is if nothing is queued.
    fn root_key(&self) -> u64 {
        self.groups.first().map_or(u64::MAX, |g| g.0[ROOT].key)
    }

    /// The queue step: queue the nodes in `hand` in the order given,
    /// then hand back in `hand`, best first, the best queued node and up
    /// to `most - 1` more, as long as each can still beat `incumbent` —
    /// or, if not even the best can, the whole queue, taken out at once
    /// (empty if nothing was queued), with `hand` left empty. What comes
    /// out, and the order in which everything left comes out later, is
    /// what pushing each node and then popping would give, since no two
    /// keys are equal; the heap does less. If the least node handed in
    /// beats the root it is handed back and never enters the heap.
    /// Otherwise it takes the root's place and sinks from there, a short
    /// walk where a pop would sink the last entry from the root to the
    /// bottom. Every other node handed in is pushed, and the rest of the
    /// batch is popped.
    ///
    /// The nodes handed in draw their sequence numbers together, after
    /// a renumbering if too few are left, so that none is left holding
    /// a number from before one.
    ///
    /// The terminal clear is exact: the best node cannot beat the
    /// incumbent, nothing behind it has a smaller bound, and the
    /// incumbent only ever falls — so every queued node would be taken
    /// and pruned one by one. The caller counts them as pruned and hands
    /// them back to a [`NodePool`] ([`NodePool::put_queue`]), outside any
    /// lock it holds. A batch stops short of
    /// `most` at the first node that cannot beat the incumbent, and
    /// leaves it queued for the step that clears.
    pub(crate) fn exchange(
        &mut self,
        hand: &mut Vec<Node>,
        incumbent: u32,
        most: usize,
    ) -> Result<(), BestFirst> {
        if u64::from(self.next_seq) + hand.len() as u64 > u64::from(u32::MAX) {
            self.renumber();
        }
        // The least node so far; an empty entry loses to any node.
        let mut least = Entry::default();
        for node in hand.drain(..) {
            let mut entry = self.entry(node);
            if entry.key < least.key {
                mem::swap(&mut entry, &mut least);
            }
            if entry.node.is_some() {
                self.sift_up(entry);
            }
        }
        let best = if least.key < self.root_key() {
            least
        } else if least.node.is_some() {
            self.replace_root(least)
        } else {
            self.pop_entry()
        };
        let beats = |key: u64| key >> 32 < u64::from(incumbent);
        match best.node {
            Some(node) if beats(best.key) => {
                hand.push(node);
                while hand.len() < most && beats(self.root_key()) {
                    hand.extend(self.pop_entry().node);
                }
                Ok(())
            }
            node => {
                if node.is_some() {
                    self.sift_up(Entry { key: best.key, node });
                }
                Err(mem::take(self))
            }
        }
    }

    /// Out of sequence numbers: give the queued entries the numbers
    /// `0..len` in the order they hold now. A rank compares as the
    /// number it replaces did, so the heap is still a heap and pop order
    /// is untouched. Once in four billion pushes.
    fn renumber(&mut self) {
        let queued = self.groups.iter().flat_map(|g| &g.0).filter(|e| e.node.is_some());
        let mut seqs: Vec<u32> = queued.map(|e| e.key as u32).collect();
        seqs.sort_unstable();
        self.next_seq = u32::try_from(seqs.len())
            .ok()
            .filter(|&queued| queued < u32::MAX)
            .expect("a queue entry's sequence number is 32 bits: 2^32 nodes are queued at once");
        for entry in self.groups.iter_mut().flat_map(|g| &mut g.0) {
            if entry.node.is_some() {
                let rank = seqs.partition_point(|&seq| seq < entry.key as u32);
                entry.key = (entry.key >> 32 << 32) | rank as u64;
            }
        }
    }
}

/// Sequential best-first search from the root of `inst`, calling
/// `before_expand` on each node about to be expanded, with its nodes
/// drawn from and handed back to `pool`. Returns the optimal tour cost
/// and search statistics.
pub(crate) fn best_first_search(
    inst: &TspInstance,
    pool: &mut NodePool,
    mut before_expand: impl FnMut(&SubProblem),
) -> (u32, SearchStats) {
    let mut stats = SearchStats::default();
    let mut best = INF;
    let mut queue = BestFirst::default();
    let mut scratch = Vec::new();
    // The children of the last node expanded, in push order, and then
    // the node the next step hands over.
    let mut hand: Vec<Node> = Vec::with_capacity(2);
    hand.push(SubProblem::root_in(inst, pool));
    loop {
        if let Err(dead) = queue.exchange(&mut hand, best, 1) {
            stats.pruned += dead.len() as u64;
            pool.put_queue(dead);
            return (best, stats);
        }
        let mut node = hand.pop().expect("a step that goes through hands over a node");
        before_expand(&node);
        stats.expanded += 1;
        match node.expand_pooled(&mut scratch, pool) {
            Expanded::Tour { cost, .. } => {
                stats.tours += 1;
                best = best.min(cost);
                pool.put(node);
            }
            Expanded::Branched { include, exclude } => {
                let exclude = if exclude {
                    Some(node)
                } else {
                    pool.put(node);
                    None
                };
                for child in include.into_iter().chain(exclude) {
                    if child.bound < best {
                        stats.generated += 1;
                        hand.push(child);
                    } else {
                        stats.pruned += 1;
                        pool.put(child);
                    }
                }
            }
            Expanded::Dead => pool.put(node),
        }
    }
}

/// Sequential best-first LMSK solver (the paper's sequential baseline).
/// Returns the optimal tour cost and search statistics. Its nodes come
/// from, and go back to, the calling thread's pool.
pub fn solve_sequential(inst: &TspInstance) -> (u32, SearchStats) {
    let mut pool = NodePool::of_this_thread();
    let solved = best_first_search(inst, &mut pool, |_| {});
    pool.keep();
    solved
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::iter;
    use std::collections::BinaryHeap;

    #[test]
    fn root_bound_is_a_lower_bound() {
        let inst = TspInstance::random_symmetric(10, 100, 3);
        let root = SubProblem::root(&inst);
        assert!(root.bound <= inst.held_karp());
        assert!(root.bound > 0);
    }

    #[test]
    fn sequential_matches_held_karp_small() {
        for seed in 0..6 {
            let inst = TspInstance::random_symmetric(8, 100, seed);
            let (best, stats) = solve_sequential(&inst);
            assert_eq!(best, inst.held_karp(), "seed {seed}");
            assert!(stats.expanded > 0);
            assert!(stats.tours >= 1);
        }
    }

    #[test]
    fn sequential_matches_held_karp_euclidean() {
        for seed in [1, 9, 77] {
            let inst = TspInstance::random_euclidean(11, 500, seed);
            let (best, _) = solve_sequential(&inst);
            assert_eq!(best, inst.held_karp(), "seed {seed}");
        }
    }

    #[test]
    fn asymmetric_instances_are_solved() {
        // LMSK handles asymmetric matrices natively.
        let inst = TspInstance::from_matrix(
            4,
            vec![
                0, 10, 15, 20, //
                5, 0, 9, 10, //
                6, 13, 0, 12, //
                8, 8, 9, 0,
            ],
        );
        let (best, _) = solve_sequential(&inst);
        // Known optimum for this classic matrix is 35 (0->1->3->2->0).
        assert_eq!(best, 35);
    }

    #[test]
    fn tours_from_expansion_are_hamiltonian() {
        let inst = TspInstance::random_symmetric(7, 50, 11);
        // Drive the search manually, checking every finished tour.
        let mut stack = vec![SubProblem::root(&inst)];
        let mut tours = 0;
        let mut best = INF;
        while let Some(sp) = stack.pop() {
            if sp.bound >= best {
                continue;
            }
            match sp.expand() {
                Expansion::Tour { cost, edges } => {
                    assert!(is_single_cycle(&edges, 7));
                    // Recompute the cost from the original instance.
                    let recomputed: u32 =
                        edges.iter().map(|&(a, b)| inst.dist(a as usize, b as usize)).sum();
                    assert_eq!(recomputed, cost, "reduced-matrix cost bookkeeping broke");
                    tours += 1;
                    best = best.min(cost);
                }
                Expansion::Children(cs) => stack.extend(cs),
                Expansion::Dead => {}
            }
        }
        assert!(tours > 0);
        assert_eq!(best, inst.held_karp());
    }

    #[test]
    fn work_cells_shrinks_with_level() {
        let inst = TspInstance::random_symmetric(10, 100, 1);
        let root = SubProblem::root(&inst);
        assert_eq!(root.work_cells(), 100);
        if let Expansion::Children(cs) = root.expand() {
            let include = cs.iter().find(|c| c.level == 1).unwrap();
            assert_eq!(include.work_cells(), 81);
        } else {
            panic!("root must branch");
        }
    }

    #[test]
    fn cycle_detector_rejects_fragments_and_duplicates() {
        assert!(is_single_cycle(&[(0, 1), (1, 2), (2, 0)], 3));
        assert!(!is_single_cycle(&[(0, 1), (1, 0), (2, 2)], 3)); // two cycles
        assert!(!is_single_cycle(&[(0, 1), (0, 2), (2, 0)], 3)); // dup out-edge
        assert!(!is_single_cycle(&[(0, 1), (1, 2)], 3)); // too few
    }

    /// What must hold of every node `expand` hands out.
    fn assert_well_formed(sp: &SubProblem) {
        let k = sp.k();
        assert_eq!(sp.data.len(), k * k + 4 * k + 2 * sp.level as usize);
        // Re-reducing from scratch finds nothing left to subtract.
        let mut cells = sp.cells().to_vec();
        assert_eq!(reduce(&mut cells, k, sp.bound, &mut vec![0; k]), sp.bound);
        assert_eq!(cells, sp.cells(), "a child was left partly reduced");
        // Ascending city ids: the dense scan order is the city order.
        assert!(sp.rows().windows(2).all(|w| w[0] < w[1]));
        assert!(sp.cols().windows(2).all(|w| w[0] < w[1]));
        // A committed edge's row and column are gone.
        for (from, to) in sp.edges() {
            let (from, to) = (u32::from(from), u32::from(to));
            assert!(!sp.rows().contains(&from), "row of committed edge {from}->{to} still live");
            assert!(!sp.cols().contains(&to), "column of committed edge {from}->{to} still live");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48,
            ..ProptestConfig::default()
        })]

        /// Include children and exclude children alike: the branch
        /// choice reads every line's zeros as the proof of its
        /// reduction, and an exclude child is reduced by two line
        /// subtractions alone.
        #[test]
        fn every_expanded_node_hands_out_well_formed_children(
            n in 3usize..13,
            seed in any::<u64>(),
            kind in 0u8..3,
            asymmetric in proptest::collection::vec(1u32..300, 144..145),
        ) {
            let inst = match kind {
                0 => TspInstance::random_symmetric(n, 100, seed),
                1 => TspInstance::random_euclidean(n, 500, seed),
                _ => TspInstance::from_matrix(n, asymmetric[..n * n].to_vec()),
            };
            let root = SubProblem::root(&inst);
            assert_well_formed(&root);
            let mut queue = BestFirst::default();
            let mut queued = vec![Box::new(root)];
            let (mut best, mut excludes) = (INF, 0);
            // Best-first, as the solvers search; capped so a hard case
            // stays quick.
            for _ in 0..2_000 {
                let Some(node) = queue.exchange(&mut queued, best, 1).ok().and_then(|()| queued.pop()) else { break };
                match node.expand() {
                    Expansion::Tour { cost, .. } => best = best.min(cost),
                    Expansion::Children(children) => {
                        for c in children {
                            assert_well_formed(&c);
                            prop_assert_eq!(c.n, node.n);
                            prop_assert!(c.bound >= node.bound);
                            excludes += usize::from(c.level == node.level);
                            queued.push(Box::new(c));
                        }
                    }
                    Expansion::Dead => {}
                }
            }
            prop_assert!(excludes > 0, "no exclude child was checked");
        }
    }

    /// The branch choice as it was made before it leaned on every line
    /// holding a zero: each line's second-smallest entry with
    /// multiplicity (at most `INF`), then the first zero of maximal
    /// penalty in row-major order. `(row, col, row_penalty,
    /// col_penalty)`.
    fn two_pass_branch_cell(cells: &[u32], k: usize) -> Option<(usize, usize, u32, u32)> {
        let (mut row_second, mut col_least, mut col_second) = (vec![INF; k], vec![INF; k], vec![INF; k]);
        for (r, row) in cells.chunks_exact(k).enumerate() {
            let (mut least, mut second) = (INF, INF);
            for (c, &v) in row.iter().enumerate() {
                second = second.min(least.max(v));
                least = least.min(v);
                col_second[c] = col_second[c].min(col_least[c].max(v));
                col_least[c] = col_least[c].min(v);
            }
            row_second[r] = second;
        }
        let mut best: Option<(usize, usize, u32, u32)> = None;
        let penalty = |&(_, _, rp, cp): &(usize, usize, u32, u32)| rp.saturating_add(cp).min(INF);
        for (r, row) in cells.chunks_exact(k).enumerate() {
            for (c, _) in row.iter().enumerate().filter(|&(_, &v)| v == 0) {
                let cell = (r, c, row_second[r], col_second[c]);
                if best.as_ref().is_none_or(|b| penalty(&cell) > penalty(b)) {
                    best = Some(cell);
                }
            }
        }
        best
    }

    /// Few values, so that penalties tie and lines hold several zeros,
    /// and both spellings of a forbidden edge.
    fn entry() -> impl Strategy<Value = u32> {
        (0u32..7).prop_map(|e| match e {
            0..=3 => e,
            4 => 9,
            5 => INF,
            _ => u32::MAX,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Fully reduced matrices: roots over small-valued matrices, and
        /// the children of a few expansions below them.
        #[test]
        fn branch_choice_picks_the_cell_the_two_pass_scan_picks(
            k in 3usize..9,
            entries in proptest::collection::vec(entry(), 64..65),
        ) {
            let root = SubProblem::root(&TspInstance::from_matrix(k, entries[..k * k].to_vec()));
            let (mut nodes, mut checked) = (vec![root], 0);
            while let Some(node) = nodes.pop().filter(|_| checked < 12) {
                if node.bound >= INF || node.k() < 3 {
                    continue;
                }
                checked += 1;
                let k = node.k();
                let got = node
                    .choose_branch_cell(&mut vec![7; k * k + 3 * k])
                    .map(|c| (c.row, c.col, c.row_penalty, c.col_penalty));
                assert_eq!(got, two_pass_branch_cell(node.cells(), k), "{:?}", node.cells());
                if let Expansion::Children(children) = node.expand() {
                    nodes.extend(children);
                }
            }
        }
    }

    /// `table` without its entry at `skip`.
    fn without(table: &[u32], skip: usize) -> impl Iterator<Item = u32> + '_ {
        table[..skip].iter().chain(&table[skip + 1..]).copied()
    }

    /// The include child as it was made before it was reduced only where
    /// it lost a zero: this node's cells and tables without the branch
    /// row and column, the closing edge forbidden, then a full
    /// `reduce`.
    fn fully_reduced_include_child(node: &SubProblem, cell: &BranchCell) -> Option<Node> {
        let (k, live) = (node.k(), node.k() - 1);
        let level = node.level + 1;
        let mut data = Vec::with_capacity(live * live + 4 * live + 2 * usize::from(level));
        for (r, row) in node.cells().chunks_exact(k).enumerate() {
            if r != cell.row {
                data.extend_from_slice(&row[..cell.col]);
                data.extend_from_slice(&row[cell.col + 1..]);
            }
        }
        data.extend(without(node.rows(), cell.row));
        data.extend(without(node.cols(), cell.col));
        data.extend(without(node.row_start(), cell.row));
        data.extend(without(node.col_end(), cell.col));
        data.extend_from_slice(node.edge_words());
        data.extend([node.rows()[cell.row], node.cols()[cell.col]]);
        let (start, end) = (node.row_start()[cell.row], node.col_end()[cell.col]);
        let (cells, ids) = data.split_at_mut(live * live);
        let end_row = ids[..live].binary_search(&end).expect("a fragment's end is a live row");
        let start_col = ids[live..2 * live]
            .binary_search(&start)
            .expect("a fragment's start is a live column");
        ids[2 * live + end_row] = start;
        ids[3 * live + start_col] = end;
        cells[end_row * live + start_col] = INF;
        let bound = reduce(cells, live, node.bound, &mut vec![0; live]);
        (bound < INF).then(|| {
            Box::new(SubProblem {
                bound,
                level,
                n: node.n,
                attempts: node.attempts,
                data,
                next: None,
            })
        })
    }

    /// The branch choice agrees with the two-pass scan, and the include
    /// child with the fully reduced one: the same cells, tables and
    /// bound, and feasible on both paths or on neither. Returns the
    /// branch cell. The scratch is exactly as long as the contract
    /// says, and starts out holding junk.
    fn assert_include_child_is_the_fully_reduced_one(node: &SubProblem) -> Option<BranchCell> {
        let k = node.k();
        let cell = node.choose_branch_cell(&mut vec![7; k * k + 3 * k]);
        let got = cell.as_ref().map(|c| (c.row, c.col, c.row_penalty, c.col_penalty));
        assert_eq!(got, two_pass_branch_cell(node.cells(), k), "{:?}", node.cells());
        let cell = cell?;
        let child = |c: Option<Node>| c.map(|c| (c.bound, c.data.clone()));
        assert_eq!(
            child(node.include_child(&cell, &mut NodePool::default())),
            child(fully_reduced_include_child(node, &cell)),
            "branching on ({}, {}) of {:?}",
            cell.row,
            cell.col,
            node.cells()
        );
        Some(cell)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Roots, and nodes up to a few dozen best-first steps below
        /// them, of symmetric, Euclidean and asymmetric matrices, each
        /// with some entries forbidden in both spellings. The asymmetric
        /// ones take few values, so lines often hold several zeros and
        /// the branch row and column often hold another line's only one.
        #[test]
        fn include_child_is_the_fully_reduced_child(
            n in 3usize..12,
            seed in any::<u64>(),
            kind in 0u8..3,
            entries in proptest::collection::vec(entry(), 121..122),
            forbidden in proptest::collection::vec((0usize..121, any::<bool>()), 0..10),
        ) {
            let mut matrix = match kind {
                0 => TspInstance::random_symmetric(n, 100, seed).matrix().to_vec(),
                1 => TspInstance::random_euclidean(n, 500, seed).matrix().to_vec(),
                _ => entries[..n * n].to_vec(),
            };
            for (at, max) in forbidden {
                matrix[at % (n * n)] = if max { u32::MAX } else { INF };
            }
            let mut queue = BestFirst::default();
            let mut queued = vec![Box::new(SubProblem::root(&TspInstance::from_matrix(n, matrix)))];
            let (mut best, mut scratch) = (INF, Vec::new());
            for _ in 0..40 {
                let Some(mut node) = queue.exchange(&mut queued, best, 1).ok().and_then(|()| queued.pop()) else { break };
                if node.bound < INF && node.k() > 2 {
                    assert_include_child_is_the_fully_reduced_one(&node);
                }
                match node.expand_in_place(&mut scratch) {
                    Expanded::Tour { cost, .. } => best = best.min(cost),
                    Expanded::Branched { include, exclude } => {
                        queued.extend(include.into_iter().chain(exclude.then_some(node)));
                    }
                    Expanded::Dead => {}
                }
            }
        }
    }

    /// A node of `k` live cities with these cells, one level below a
    /// root of `k + 1` cities that has committed the edge `k -> 0`: the
    /// rows are cities `0..k`, the columns `1..=k`, and the cell that
    /// would close a row's fragment is `(0, k - 1)` for row 0 and
    /// `(r, r - 1)` for every other row.
    fn node_with_cells(k: usize, cells: &[u32]) -> SubProblem {
        let last = k as u32;
        let mut data = cells.to_vec();
        data.extend(0..last);
        data.extend(1..=last);
        data.extend([last].into_iter().chain(1..last));
        data.extend((1..last).chain([0]));
        data.extend([last, 0]);
        SubProblem {
            bound: 0,
            level: 1,
            n: (k + 1) as u16,
            attempts: 0,
            data,
            next: None,
        }
    }

    /// The longest zero list: every cell is a zero, so it fills the
    /// scratch to its last word. Every line holds other zeros, so
    /// nothing the include child loses needs a reduction.
    #[test]
    fn a_node_of_nothing_but_zeros_lists_every_cell() {
        for k in 3..=16 {
            let node = node_with_cells(k, &vec![0; k * k]);
            let cell = assert_include_child_is_the_fully_reduced_one(&node).expect("a zero to branch on");
            assert_eq!((cell.row, cell.col, cell.penalty()), (0, 0, 0), "k = {k}");
        }
    }

    /// The shortest zero list: one zero in each row and in each column,
    /// so every penalty is positive and no other line holds a zero in
    /// the branch row or column. Zeros on shifted diagonals that miss
    /// the closing cells, which are forbidden; the other cells all 1,
    /// so that penalties tie, or all but a few different.
    #[test]
    fn a_node_with_one_zero_per_line_lists_k_zeros() {
        for k in 3..=16 {
            for shift in [0, 1, k / 2, k - 2] {
                for spread in [0, 1] {
                    let cells: Vec<u32> = (0..k * k)
                        .map(|i| match (i / k, i % k) {
                            (r, c) if c == (r + shift) % k => 0,
                            (0, c) if c == k - 1 => INF,
                            (r, c) if r > 0 && c == r - 1 => INF,
                            (r, c) => 1 + ((r * 7 + c * 3) * spread % 11) as u32,
                        })
                        .collect();
                    let node = node_with_cells(k, &cells);
                    let cell = assert_include_child_is_the_fully_reduced_one(&node).expect("a zero to branch on");
                    assert!(cell.row_penalty > 0 && cell.col_penalty > 0, "k = {k}, shift {shift}");
                }
            }
        }
    }

    /// A node that is nothing but its place in the order and a name.
    fn stub(bound: u32, id: u16) -> Node {
        Box::new(SubProblem {
            bound,
            level: id,
            n: 0,
            attempts: u32::from(id % 3),
            data: Vec::new(),
            next: None,
        })
    }

    /// A finished node of `level` whose buffer holds `words` words of
    /// junk.
    fn stale(level: u16, words: usize) -> Node {
        let mut node = stub(7, level);
        node.data = vec![9; words];
        node
    }

    /// Whatever the pooled node held — a larger buffer or one too small,
    /// of the child's level, a shallower one or a deeper one — the child
    /// built in it is the child a new node holds, and an infeasible one
    /// goes back to the pool.
    #[test]
    fn a_child_built_in_a_pooled_node_is_the_child_a_new_node_holds() {
        let (mut scratch, mut built) = (Vec::new(), 0);
        for seed in 0..4 {
            let inst = TspInstance::random_euclidean(12, 500, seed);
            let mut node = Box::new(SubProblem::root(&inst));
            while node.k() > 2 {
                let level = node.level + 1;
                let Expanded::Branched { include: want, exclude } = node.clone().expand_in_place(&mut scratch) else {
                    break;
                };
                for (at, words) in [(level, 400), (level, 1), (0, 400), (level + 3, 1)] {
                    let mut pool = NodePool::default();
                    pool.put(stale(at, words));
                    let got = match node.clone().expand_pooled(&mut scratch, &mut pool) {
                        Expanded::Branched { include, .. } => include,
                        _ => panic!("the same node branches the same way"),
                    };
                    let child = |c: &Option<Node>| c.as_ref().map(|c| (c.bound, c.level, c.n, c.attempts, c.data.clone()));
                    assert_eq!(child(&got), child(&want), "from a node of level {at} holding {words} words");
                    assert_eq!(pool.held, usize::from(got.is_none()), "the child is built in the pooled node");
                    built += usize::from(got.is_some());
                }
                match (want, exclude) {
                    (Some(include), _) => node = include,
                    // The node becomes its own exclude child.
                    (None, true) => {
                        node.expand_in_place(&mut scratch);
                    }
                    (None, false) => break,
                }
            }
        }
        assert!(built > 20, "{built} children built in pooled nodes");
    }

    #[test]
    fn the_pool_takes_its_own_level_then_the_unfiled_then_shallower_then_deeper() {
        let mut pool = NodePool::default();
        for (level, words) in [(1, 100), (3, 60), (5, 20)] {
            pool.put(stale(level, words));
        }
        let mut dead = BestFirst::default();
        for (level, words) in [(4, 30), (2, 80)] {
            dead.push(stale(level, words));
        }
        pool.put_queue(dead);
        assert_eq!(pool.held, 5);
        // Neither unfiled node is of level 3: both are filed on the way.
        let taken: Vec<u16> = iter::from_fn(|| pool.take(3)).map(|node| node.level).collect();
        assert_eq!(taken, [3, 2, 1, 4, 5]);
        assert!(pool.is_empty());
    }

    #[test]
    fn a_borrow_moves_unfiled_nodes_first_then_the_nearest_filed() {
        let mut lender = NodePool::default();
        for level in [1, 2, 6] {
            lender.put(stale(level, 8));
        }
        let mut dead = BestFirst::default();
        for level in [4, 4, 4] {
            dead.push(stale(level, 8));
        }
        lender.put_queue(dead);
        let mut pool = NodePool::default();
        pool.borrow(&mut lender, 3, 2);
        assert_eq!((pool.held, pool.unfiled.len(), lender.held), (2, 2, 4));
        pool.borrow(&mut lender, 3, 3);
        assert_eq!((pool.held, pool.unfiled.len(), lender.held), (5, 3, 1));
        let left: Vec<u16> = iter::from_fn(|| lender.take(0)).map(|node| node.level).collect();
        assert_eq!(left, [6], "levels 2 and 1, nearest level 3 from above, were lent");
    }

    #[test]
    fn a_long_file_is_dropped_one_node_at_a_time() {
        // Dropped whole, a file of this length would take a nested call
        // per node, far past the thread's 64 KiB of stack.
        let dropped = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(|| {
                let mut pool = NodePool::default();
                for _ in 0..20_000 {
                    pool.put(stub(0, 1));
                }
                drop(pool);
            })
            .expect("a thread to drop the pool on")
            .join();
        assert!(dropped.is_ok());
    }

    /// `BestFirst` beside what it replaced the order of: a binary heap
    /// over `(bound, seq)` whose sequence numbers never run out.
    #[derive(Default)]
    struct Model {
        queue: BestFirst,
        reference: BinaryHeap<Reverse<(u32, u64, u16)>>,
        pushed: u16,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Pop,
        /// A queue step: these children's bounds, the incumbent, and
        /// how many nodes the step may take.
        Exchange(Vec<u32>, u32, usize),
        /// A steal: up to this many pops in a row.
        Batch(usize),
    }

    impl Model {
        /// A fresh node of this bound, named in the reference too.
        fn node(&mut self, bound: u32) -> Node {
            let id = self.pushed;
            self.pushed += 1;
            self.reference.push(Reverse((bound, u64::from(id), id)));
            stub(bound, id)
        }

        fn push(&mut self, bound: u32) {
            let node = self.node(bound);
            self.queue.push(node);
        }

        /// Both queues give up the same node, or neither gives one.
        fn pop(&mut self) -> bool {
            let got = self.queue.pop().map(|node| (node.bound, node.level, node.attempts));
            let want = self.reference.pop().map(|Reverse((bound, _, id))| (bound, id, u32::from(id % 3)));
            assert_eq!(got, want);
            got.is_some()
        }

        /// The reference pushes the children, then pops while its best
        /// beats `incumbent`, up to `take` times, and takes everything
        /// if not even the first beats it.
        fn exchange(&mut self, children: &[u32], incumbent: u32, take: usize) {
            let mut hand: Vec<Node> = children.iter().map(|&bound| self.node(bound)).collect();
            let beaten = |reference: &BinaryHeap<Reverse<(u32, u64, u16)>>| {
                reference.peek().is_none_or(|Reverse(best)| best.0 >= incumbent)
            };
            match self.queue.exchange(&mut hand, incumbent, take) {
                Ok(()) => {
                    assert!((1..=take).contains(&hand.len()), "{} nodes for a take of {take}", hand.len());
                    for node in &hand {
                        let Some(Reverse((bound, _, id))) = self.reference.pop() else {
                            panic!("node {} out of a queue the reference has empty", node.level);
                        };
                        assert!(bound < incumbent);
                        assert_eq!((node.bound, node.level, node.attempts), (bound, id, u32::from(id % 3)));
                    }
                    // A batch stops short only at a node that cannot
                    // beat the incumbent, or at the end of the queue.
                    assert!(hand.len() == take || beaten(&self.reference));
                }
                Err(dead) => {
                    assert!(hand.is_empty());
                    assert!(beaten(&self.reference));
                    assert_eq!(dead.len(), self.reference.len(), "dead count");
                    self.reference.clear();
                }
            }
        }

        fn apply(&mut self, op: &Op) {
            match op {
                Op::Push(bound) => self.push(*bound),
                Op::Pop => {
                    self.pop();
                }
                Op::Batch(most) => {
                    let _ = (0..*most).try_for_each(|_| self.pop().then_some(()));
                }
                Op::Exchange(children, incumbent, take) => self.exchange(children, *incumbent, *take),
            }
            assert_eq!(self.queue.len(), self.reference.len());
        }
    }

    /// Pushes and queue steps with up to eight children outnumber the
    /// pops, so a queue grows as often as it shrinks; a step takes one
    /// node, as the sequential search's does, or a batch of up to four.
    fn any_op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u32..5, proptest::collection::vec(0u32..5, 0..9), 1usize..5).prop_map(
            |(kind, x, children, take)| match kind {
                0..=3 => Op::Push(x),
                4 | 5 => Op::Pop,
                6..=8 => Op::Exchange(children, x + 1, take),
                _ => Op::Batch(x as usize + 1),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Few distinct bounds, so almost every comparison is decided by
        /// FIFO-within-a-bound; up to 70 queued, so the heap crosses its
        /// 1, 5 and 21-entry levels and every fill of a sibling group.
        #[test]
        fn queue_pops_in_the_order_a_binary_heap_over_bound_and_seq_does(
            fill in proptest::collection::vec(0u32..5, 0..71),
            before in proptest::collection::vec(any_op(), 0..80),
            after in proptest::collection::vec(any_op(), 0..80),
        ) {
            let mut model = Model::default();
            for &bound in &fill {
                model.push(bound);
            }
            for op in &before {
                model.apply(op);
            }
            // A take-everything in the middle, fresh children and all,
            // then life goes on.
            model.apply(&Op::Exchange(vec![0, 1], 0, 4));
            prop_assert_eq!(model.queue.len(), 0);
            for &bound in &fill {
                model.push(bound);
            }
            for op in &after {
                model.apply(op);
            }
            while model.pop() {}
            prop_assert_eq!(model.queue.len(), 0);
        }
    }

    #[test]
    fn queue_renumbers_in_place_when_sequence_numbers_run_out() {
        let mut model = Model::default();
        model.queue.next_seq = u32::MAX - 40;
        // A hundred pushes over three bounds straddle the limit, with a
        // pop after every fourth so the renumbered heap is not full.
        for i in 0..100u32 {
            model.push(i % 3);
            if i % 4 == 3 {
                model.pop();
            }
        }
        assert!(model.queue.next_seq < 200, "renumbered from {}", model.queue.next_seq);
        while model.pop() {}

        // Queue steps of two children over three bounds, from both
        // parities of the distance to the limit: from the odd one a
        // step's two numbers would fall on either side of it. Drawn one
        // at a time, the renumbering would come between them and leave
        // the first child a number from before it, to be taken after
        // every later node of its bound.
        for start in [u32::MAX - 41, u32::MAX - 40] {
            let mut model = Model::default();
            model.queue.next_seq = start;
            for i in 0..60u32 {
                model.exchange(&[i % 3, (i + 1) % 3], INF, 1);
            }
            assert!(model.queue.next_seq < 200, "renumbered from {}", model.queue.next_seq);
            while model.pop() {}
        }
    }
}
