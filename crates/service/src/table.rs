//! A shard's pairs: an open-addressing table of atomic cells that a
//! reader walks with loads only.
//!
//! The store never deletes and a value is one word, and the whole
//! protocol rests on those two facts:
//!
//! * **A cell's key is written once.** A cell goes `EMPTY → key` exactly
//!   once — value stored first, then the key with `Release` — and from
//!   then on only its value word changes. A reader that `Acquire`-loads
//!   the key therefore sees a value that belongs to it: there is no
//!   torn pair to detect, no sequence word, and a reader never retries
//!   against a writer. Probe chains only ever get longer, so a key that
//!   is in the table sits before the first empty cell of its chain for
//!   good.
//! * **A bigger table is published, the smaller one left alone.** Cell
//!   arrays live in `levels`, each twice the one before, and `level`
//!   names the one in use. Growth copies every pair into the next
//!   array, `set`s it and only then stores `level` with `Release`; a
//!   reader that `Acquire`-loads a level can see its array filled. The
//!   smaller array is never written again, so a reader still walking it
//!   finds what was current when growth began — a moment inside its own
//!   operation, because it picked the level before growth published.
//!   Arrays stay until the table drops: together under twice the cells
//!   of the one in use.
//!
//! Writing is the right of whoever holds the table's one [`Writer`],
//! which the store keeps inside the shard's lock: every mutating method
//! takes it by reference, so "under the shard lock" is checked by the
//! compiler rather than remembered.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::router::scramble;

/// Key word of a cell that holds no pair. The one key with this value
/// is kept in [`Table::side`] instead.
const EMPTY: u64 = u64::MAX;
/// Key word of the side cell once it holds the pair of key [`EMPTY`].
const SIDE_TAKEN: u64 = 0;
/// Cells at level 0; level `l` has `FIRST_CELLS << l`.
const FIRST_CELLS: usize = 16;
/// Levels from `FIRST_CELLS` up to 2^35 cells, half a terabyte.
const LEVELS: usize = 32;

struct Cell {
    key: AtomicU64,
    value: AtomicU64,
}

impl Cell {
    fn empty() -> Cell {
        Cell { key: AtomicU64::new(EMPTY), value: AtomicU64::new(0) }
    }
}

/// The right to write one [`Table`], and what only a writer needs: the
/// key count that decides growth.
pub(crate) struct Writer {
    keys: usize,
}

pub(crate) struct Table {
    /// Index into `levels` of the array ops use.
    level: AtomicU32,
    levels: [OnceLock<Box<[Cell]>>; LEVELS],
    /// Home of the pair whose key is [`EMPTY`]: its key word is `EMPTY`
    /// while absent and [`SIDE_TAKEN`] afterwards.
    side: Cell,
    /// The writer's key count, published for readers of statistics.
    keys: AtomicUsize,
}

/// A table is grown before its keys would pass 7/8 of its cells. Against
/// 3/4 (measured on `store-zipf`, EXPERIMENTS.md *PR 21*): half the
/// cells for 25 k keys a shard, so half the first-touched memory in
/// set-up and half the cells a scan walks, for a slightly longer probe.
fn has_room(cells: usize, keys: usize) -> bool {
    keys <= cells / 8 * 7
}

fn allocate(cells: usize) -> Box<[Cell]> {
    (0..cells).map(|_| Cell::empty()).collect()
}

/// The cell that holds `key`, or the empty cell that ends its chain,
/// and which of the two it was when its key word was read. Probing
/// starts from the high half of the hash: routing consumed the low
/// bits, which are the same for every key of a shard. It terminates
/// because an array always has an empty cell (see [`has_room`]).
#[inline]
fn probe(cells: &[Cell], key: u64) -> (&Cell, bool) {
    let mask = cells.len() - 1;
    let mut at = (scramble(key) >> 32) as usize & mask;
    loop {
        let cell = &cells[at];
        // Pairs with the `Release` in `fill`: whoever sees the key sees
        // the value stored before it.
        let found = cell.key.load(Ordering::Acquire);
        if found == key || found == EMPTY {
            return (cell, found == key);
        }
        at = (at + 1) & mask;
    }
}

/// The pairs of an array that nobody is writing: an unshared one, or
/// the one in use while the caller holds the writer.
fn each_pair(cells: &[Cell], mut f: impl FnMut(u64, u64)) {
    for cell in cells {
        let key = cell.key.load(Ordering::Relaxed);
        if key != EMPTY {
            f(key, cell.value.load(Ordering::Relaxed));
        }
    }
}

/// Turn an empty cell into a pair: the value first, then the key.
fn fill(cell: &Cell, key_word: u64, value: u64) {
    cell.value.store(value, Ordering::Relaxed);
    cell.key.store(key_word, Ordering::Release);
}

impl Table {
    /// An empty table that takes `keys` pairs before it first grows,
    /// and its writer.
    pub(crate) fn with_room(keys: usize) -> (Table, Writer) {
        let level = (0..LEVELS)
            .find(|&level| has_room(FIRST_CELLS << level, keys))
            .expect("a table of more than 2^35 cells");
        let table = Table {
            level: AtomicU32::new(level as u32),
            levels: std::array::from_fn(|_| OnceLock::new()),
            side: Cell::empty(),
            keys: AtomicUsize::new(0),
        };
        assert!(table.levels[level].set(allocate(FIRST_CELLS << level)).is_ok());
        (table, Writer { keys: 0 })
    }

    /// The array in use. A reader loads the level with `Acquire`, which
    /// pairs with the `Release` in `grow`; the writer, who stored it,
    /// with `Relaxed`.
    #[inline]
    fn cells(&self, order: Ordering) -> &[Cell] {
        self.levels[self.level.load(order) as usize]
            .get()
            .expect("an array is set before the level that names it is stored")
    }

    /// Read a key. Loads only, and never waits for a writer.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let (cell, found) = if key == EMPTY {
            (&self.side, self.side.key.load(Ordering::Acquire) == SIDE_TAKEN)
        } else {
            probe(self.cells(Ordering::Acquire), key)
        };
        // `Acquire` so that what the caller loads next — the shard's
        // `retired` flag — is read after the value, not before.
        found.then(|| cell.value.load(Ordering::Acquire))
    }

    /// Map `key`'s value (or `None`) through `f` and store the result;
    /// returns the value before and the value after.
    pub(crate) fn upsert(
        &self,
        writer: &mut Writer,
        key: u64,
        f: impl FnOnce(Option<u64>) -> u64,
    ) -> (Option<u64>, u64) {
        let (cell, found, key_word) = if key == EMPTY {
            (&self.side, self.side.key.load(Ordering::Relaxed) == SIDE_TAKEN, SIDE_TAKEN)
        } else {
            let cells = self.cells(Ordering::Relaxed);
            let (mut cell, found) = probe(cells, key);
            if !found && !has_room(cells.len(), writer.keys + 1) {
                (cell, _) = probe(self.grow(cells), key);
            }
            (cell, found, key)
        };
        if found {
            // The value word is the datum and publishes nothing else.
            let old = cell.value.load(Ordering::Relaxed);
            let new = f(Some(old));
            cell.value.store(new, Ordering::Relaxed);
            return (Some(old), new);
        }
        let new = f(None);
        fill(cell, key_word, new);
        writer.keys += 1;
        self.keys.store(writer.keys, Ordering::Relaxed);
        (None, new)
    }

    /// Copy every pair of `from`, the array in use, into one twice its
    /// size and publish that. The caller holds the writer, so nothing
    /// changes between the copy and the publication.
    #[cold]
    fn grow(&self, from: &[Cell]) -> &[Cell] {
        let level = self.level.load(Ordering::Relaxed) + 1;
        assert!((level as usize) < LEVELS, "a table of more than 2^35 cells");
        let bigger = allocate(from.len() * 2);
        each_pair(from, |key, value| fill(probe(&bigger, key).0, key, value));
        assert!(self.levels[level as usize].set(bigger).is_ok(), "one array per level");
        self.level.store(level, Ordering::Release);
        self.cells(Ordering::Relaxed)
    }

    /// Visit every pair. Holding the writer means no pair changes
    /// underneath.
    pub(crate) fn for_each(&self, _writer: &Writer, mut f: impl FnMut(u64, u64)) {
        each_pair(self.cells(Ordering::Relaxed), &mut f);
        if self.side.key.load(Ordering::Relaxed) == SIDE_TAKEN {
            f(EMPTY, self.side.value.load(Ordering::Relaxed));
        }
    }

    /// Keys in the table, as last published by its writer. A statistic:
    /// exact at quiescence, and otherwise at most an insert behind.
    pub(crate) fn keys(&self) -> usize {
        self.keys.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The sentinel, its neighbour, and the key a zeroed cell would hold.
    const EDGE_KEYS: [u64; 3] = [0, u64::MAX - 1, u64::MAX];

    fn pairs(table: &Table, writer: &Writer) -> BTreeMap<u64, u64> {
        let mut seen = BTreeMap::new();
        table.for_each(writer, |k, v| assert!(seen.insert(k, v).is_none(), "{k} visited twice"));
        seen
    }

    #[test]
    fn a_table_grown_through_six_levels_keeps_every_pair() {
        let (table, mut writer) = Table::with_room(0);
        let keys: Vec<u64> = EDGE_KEYS.into_iter().chain(1..=1000).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table.get(k), None);
            assert_eq!(table.upsert(&mut writer, k, |v| v.map_or(!k, |_| 0)), (None, !k));
            assert_eq!(table.keys(), i + 1);
            // Every pair so far survived whatever growth that took.
            if i % 97 == 0 {
                assert!(keys[..=i].iter().all(|&k| table.get(k) == Some(!k)));
            }
        }
        assert!(table.level.load(Ordering::Relaxed) >= 6);
        // Values change in place, and only the written key's.
        for &k in &EDGE_KEYS {
            let bumped = table.upsert(&mut writer, k, |v| v.map_or(0, |v| v.wrapping_add(1)));
            assert_eq!(bumped, (Some(!k), (!k).wrapping_add(1)));
        }
        assert_eq!(table.keys(), keys.len());
        let want: BTreeMap<u64, u64> = keys
            .iter()
            .map(|&k| (k, if EDGE_KEYS.contains(&k) { (!k).wrapping_add(1) } else { !k }))
            .collect();
        assert_eq!(pairs(&table, &writer), want);
        assert!(want.iter().all(|(&k, &v)| table.get(k) == Some(v)));
        // The smaller arrays stay for readers still in them: a geometric
        // series under twice the array in use.
        let kept: usize = table.levels.iter().filter_map(|l| l.get()).map(|l| l.len()).sum();
        assert!(kept < 2 * table.cells(Ordering::Relaxed).len());
    }

    #[test]
    fn a_full_chain_that_wraps_the_end_of_the_array_terminates() {
        // Fourteen keys that all start probing at the last of sixteen
        // cells: the chain runs 15, 0, 1, … 12 at the load where the
        // table would grow on the next key.
        let last = FIRST_CELLS - 1;
        let starts_last = |k: &u64| (scramble(*k) >> 32) as usize & last == last;
        let mut keys = (0..u64::MAX - 1).filter(starts_last);
        let (table, mut writer) = Table::with_room(0);
        let chain: Vec<u64> = keys.by_ref().take(FIRST_CELLS / 8 * 7).collect();
        for &k in &chain {
            table.upsert(&mut writer, k, |_| k);
        }
        assert_eq!(table.level.load(Ordering::Relaxed), 0, "the table grew: not a full-load chain");
        assert!(chain.iter().all(|&k| table.get(k) == Some(k)));
        // A miss walks the whole chain round the end to the one gap.
        let absent = keys.next().expect("one key in sixteen starts there");
        assert_eq!(table.get(absent), None);
        // The next key grows the table, and the chain comes apart intact.
        assert_eq!(table.upsert(&mut writer, absent, |_| absent), (None, absent));
        assert_eq!(table.level.load(Ordering::Relaxed), 1);
        assert!(chain.iter().chain(&[absent]).all(|&k| table.get(k) == Some(k)));
    }

    #[test]
    fn a_table_made_with_room_does_not_grow_while_it_is_filled() {
        for keys in [0usize, 1, 14, 15, 448, 449, 25_000] {
            let (table, mut writer) = Table::with_room(keys);
            let level = table.level.load(Ordering::Relaxed);
            for k in 0..keys as u64 {
                table.upsert(&mut writer, k, |_| k);
            }
            assert_eq!(table.level.load(Ordering::Relaxed), level, "{keys} keys grew the table");
            // ... and was not made a level too big either.
            assert!(level == 0 || !has_room(FIRST_CELLS << (level - 1), keys));
        }
    }
}
