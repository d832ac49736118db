//! A shard's pairs: an open-addressing table of atomic cells that a
//! reader walks with loads only and that changes the value of a
//! present key with one CAS.
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
//! * **A value word is a value or [`CLAIMED`].** Anyone may CAS a value
//!   into another value ([`Table::add`]); nobody but the holder of the
//!   [`Writer`] turns one into `CLAIMED`, and a CAS that finds `CLAIMED`
//!   is refused and goes to the writer. The writer claims a word for as
//!   long as it must be the only one to change it: for good when growth
//!   or a split copies the pair out ([`Table::freeze_each`]), so every
//!   racing CAS either landed before the copy and is in it or is
//!   refused; and for the length of the closure in [`Table::upsert`],
//!   which stores the result (or, if the closure unwinds, the old value)
//!   back. A real value of `u64::MAX` reads as `CLAIMED` too. Only the
//!   writer can tell the two apart — under the writer no claim is
//!   outstanding on the array in use, so what it loads is a value — and
//!   a `CLAIMED` found without it always means "ask the writer".
//! * **A bigger table is published, the smaller one frozen.** Cell
//!   arrays live in `levels`, each twice the one before, and `level`
//!   names the one in use. Growth claims every pair of the array in use
//!   for good, copies it into the next array, `set`s that and only then
//!   stores `level` with `Release`; a reader that `Acquire`-loads a
//!   level can see its array filled. The smaller array is never written
//!   again, so a reader still walking it finds a key where it was and
//!   `CLAIMED` for its value. Arrays stay until the table drops:
//!   together under twice the cells of the one in use.
//!
//! Inserting, growing, claiming and walking every pair are the right of
//! whoever holds the table's one [`Writer`], which the store keeps
//! inside the shard's lock: each of those methods takes it by
//! reference, so "under the shard lock" is checked by the compiler
//! rather than remembered.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::router::scramble;

/// Key word of a cell that holds no pair. The one key with this value
/// is kept in [`Table::side`] instead.
const EMPTY: u64 = u64::MAX;
/// Value word of a pair the writer has claimed — or of a pair whose
/// value is `u64::MAX`, which only the writer can tell apart.
pub(crate) const CLAIMED: u64 = u64::MAX;
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

/// The pairs of the array in use, which only the caller, holding the
/// writer, can add to. `take` reads a value word: a load, or a claim
/// that freezes it.
fn each_pair(cells: &[Cell], take: impl Fn(&AtomicU64) -> u64, mut f: impl FnMut(u64, u64)) {
    for cell in cells {
        let key = cell.key.load(Ordering::Relaxed);
        if key != EMPTY {
            f(key, take(&cell.value));
        }
    }
}

fn load(value: &AtomicU64) -> u64 {
    value.load(Ordering::Relaxed)
}

/// Claim a value word and return what it held, a real value: claims
/// are the writer's, and the caller is it. `Relaxed`: the swap
/// and a racing CAS are read-modify-writes of one word, so one of them
/// sees the other whatever the ordering, and the word publishes nothing.
fn freeze(value: &AtomicU64) -> u64 {
    value.swap(CLAIMED, Ordering::Relaxed)
}

/// Turn an empty cell into a pair: the value first, then the key.
fn fill(cell: &Cell, key_word: u64, value: u64) {
    cell.value.store(value, Ordering::Relaxed);
    cell.key.store(key_word, Ordering::Release);
}

/// A value word the writer has claimed for one closure. Dropping it
/// stores `value` back: the old value unless the closure returned a new
/// one, so a closure that unwinds leaves the pair as it found it.
struct Claim<'a> {
    word: &'a AtomicU64,
    value: u64,
}

impl<'a> Claim<'a> {
    fn new(word: &'a AtomicU64) -> Claim<'a> {
        Claim { word, value: freeze(word) }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.word.store(self.value, Ordering::Relaxed);
    }
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

    /// The cell that holds `key`, if one does. Loads only.
    #[inline]
    fn find(&self, key: u64) -> Option<&Cell> {
        let (cell, found) = if key == EMPTY {
            (&self.side, self.side.key.load(Ordering::Acquire) == SIDE_TAKEN)
        } else {
            probe(self.cells(Ordering::Acquire), key)
        };
        found.then_some(cell)
    }

    /// Read a key. Loads only, and never waits for a writer. A value of
    /// [`CLAIMED`] may be a claim or a real `u64::MAX`; read under the
    /// writer, it is the value.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        // `Acquire` so that what the caller loads next — the shard's
        // `retired` flag — is read after the value, not before.
        self.find(key).map(|cell| cell.value.load(Ordering::Acquire))
    }

    /// Add `by` (wrapping) to a present key's value with a CAS loop,
    /// without the writer; returns the new value. `None` if the key is
    /// absent or its value word reads [`CLAIMED`]: either way only the
    /// writer can go on.
    #[inline]
    pub(crate) fn add(&self, key: u64, by: u64) -> Option<u64> {
        // The value word is the datum and publishes nothing else.
        let word = &self.find(key)?.value;
        let old = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            (v != CLAIMED).then(|| v.wrapping_add(by))
        });
        old.ok().map(|old| old.wrapping_add(by))
    }

    /// Map `key`'s value (or `None`) through `f` and store the result;
    /// returns the value before and the value after. The pair is
    /// claimed while `f` runs; if `f` unwinds it keeps its old value.
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
            let mut claim = Claim::new(&cell.value);
            let old = claim.value;
            claim.value = f(Some(old));
            return (Some(old), claim.value);
        }
        let new = f(None);
        fill(cell, key_word, new);
        writer.keys += 1;
        self.keys.store(writer.keys, Ordering::Relaxed);
        (None, new)
    }

    /// Freeze every pair of `from`, the array in use, copy it into an
    /// array twice its size and publish that. The caller holds the
    /// writer, so no pair appears between the copy and the publication,
    /// and a CAS that races the copy is refused unless its pair is not
    /// copied yet.
    #[cold]
    fn grow(&self, from: &[Cell]) -> &[Cell] {
        let level = self.level.load(Ordering::Relaxed) + 1;
        assert!((level as usize) < LEVELS, "a table of more than 2^35 cells");
        let bigger = allocate(from.len() * 2);
        each_pair(from, freeze, |key, value| fill(probe(&bigger, key).0, key, value));
        assert!(self.levels[level as usize].set(bigger).is_ok(), "one array per level");
        self.level.store(level, Ordering::Release);
        self.cells(Ordering::Relaxed)
    }

    /// Visit every pair. Holding the writer means no pair appears or
    /// moves underneath; a value may still change by CAS during the
    /// walk, and `f` sees it once, as it was when it was read.
    pub(crate) fn for_each(&self, _writer: &Writer, f: impl FnMut(u64, u64)) {
        self.visit(load, f);
    }

    /// Claim every pair for good and visit it: the table is frozen from
    /// here on. A CAS that raced the walk either landed before its pair
    /// was claimed, and `f` sees it, or was refused.
    pub(crate) fn freeze_each(&self, _writer: &mut Writer, f: impl FnMut(u64, u64)) {
        self.visit(freeze, f);
    }

    fn visit(&self, take: impl Fn(&AtomicU64) -> u64, mut f: impl FnMut(u64, u64)) {
        each_pair(self.cells(Ordering::Relaxed), &take, &mut f);
        if self.side.key.load(Ordering::Relaxed) == SIDE_TAKEN {
            f(EMPTY, take(&self.side.value));
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

    #[test]
    fn growth_freezes_the_smaller_array_and_every_pair_lives_on_in_the_bigger_one() {
        let (table, mut writer) = Table::with_room(0);
        let keys: Vec<u64> = (1..=(FIRST_CELLS / 8 * 7) as u64).collect();
        for &k in &keys {
            table.upsert(&mut writer, k, |_| k);
        }
        assert_eq!(table.level.load(Ordering::Relaxed), 0);
        assert_eq!(table.add(1, 10), Some(11), "a live array takes adds without the writer");
        // The next key grows the table.
        table.upsert(&mut writer, 100, |_| 100);
        assert_eq!(table.level.load(Ordering::Relaxed), 1);
        // An op that loaded the level before growth published it walks
        // the smaller array: every value there is claimed, so its add
        // is refused and its get asks the writer.
        table.level.store(0, Ordering::Relaxed);
        for &k in &keys {
            assert_eq!(table.add(k, 1), None, "key {k}");
            assert_eq!(table.get(k), Some(CLAIMED));
        }
        table.level.store(1, Ordering::Relaxed);
        for &k in &keys {
            let v = if k == 1 { 11 } else { k };
            assert_eq!(table.get(k), Some(v), "key {k} lost by growth");
            assert_eq!(table.add(k, 1), Some(v + 1));
        }
    }

    #[test]
    fn a_table_frozen_for_a_split_refuses_every_add_and_hands_over_every_pair() {
        let (table, mut writer) = Table::with_room(0);
        let keys: Vec<u64> = EDGE_KEYS.into_iter().chain(1..=100).collect();
        for &k in &keys {
            table.upsert(&mut writer, k, |_| k / 2);
        }
        let mut handed = BTreeMap::new();
        table.freeze_each(&mut writer, |k, v| assert!(handed.insert(k, v).is_none()));
        assert_eq!(handed, keys.iter().map(|&k| (k, k / 2)).collect());
        for &k in &keys {
            assert_eq!(table.add(k, 1), None, "key {k}");
            assert_eq!(table.get(k), Some(CLAIMED));
        }
        // A split child built from what was handed over takes adds again.
        let (child, mut child_writer) = Table::with_room(handed.len());
        for (&k, &v) in &handed {
            child.upsert(&mut child_writer, k, |_| v);
        }
        assert!(keys.iter().all(|&k| child.add(k, 1) == Some(k / 2 + 1)));
    }

    #[test]
    fn a_claimed_cell_sends_adds_and_gets_to_the_writer_until_its_closure_ends() {
        let (table, mut writer) = Table::with_room(0);
        for k in EDGE_KEYS {
            table.upsert(&mut writer, k, |_| 5);
        }
        for k in EDGE_KEYS {
            let written = table.upsert(&mut writer, k, |v| {
                let refused = (table.add(k, 1), table.get(k));
                assert_eq!(refused, (None, Some(CLAIMED)), "key {k} inside upsert");
                v.map_or(0, |v| v + 1)
            });
            assert_eq!(written, (Some(5), 6));
            assert_eq!(table.add(k, 1), Some(7));
        }
    }

    #[test]
    fn a_closure_that_unwinds_leaves_its_claimed_value_in_place() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (table, mut writer) = Table::with_room(0);
        for k in EDGE_KEYS {
            table.upsert(&mut writer, k, |_| k / 2);
        }
        for k in EDGE_KEYS {
            let upsert = catch_unwind(AssertUnwindSafe(|| {
                table.upsert(&mut writer, k, |_| panic!("an upsert closure unwinds"))
            }));
            assert!(upsert.is_err());
            assert_eq!(table.get(k), Some(k / 2));
            assert_eq!(table.add(k, 1), Some(k / 2 + 1), "key {k} was left claimed");
        }
    }
}
