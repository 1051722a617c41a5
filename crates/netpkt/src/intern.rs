//! Name interning for the per-packet fast path.
//!
//! Runtime programmability means header and metadata names arrive as
//! strings from the control plane, but comparing and hashing strings on
//! every packet is exactly the overhead a compiled data path must not pay.
//! This module maps names to dense `u32` ids once — at control-plane time —
//! so the data path works with `Copy` integers.
//!
//! Two tables live here:
//!
//! * [`Sym`] — a process-global symbol table for *header type* names (and
//!   any other name that wants cheap equality). Interned strings leak; the
//!   set of distinct protocol names over a process lifetime is tiny.
//! * the *metadata* table ([`meta_id`] / [`meta_name`]) — a separate dense
//!   id space for user metadata field names, kept apart from [`Sym`] so the
//!   per-packet metadata vector ([`crate::Metadata`]) stays as small as the
//!   number of metadata fields actually defined, not the number of symbols
//!   ever interned.
//!
//! Both tables only grow. Ids are stable for the life of the process, which
//! is what lets a compiled pipeline cache them across packets and epochs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Content, DeError, Deserialize, Serialize};

/// One string table: dense id → `&'static str` plus the reverse index.
#[derive(Default)]
struct Tab {
    names: Vec<&'static str>,
    index: HashMap<&'static str, u32>,
}

impl Tab {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.names.push(leaked);
        self.index.insert(leaked, id);
        id
    }
}

/// Read access to a table. Under `cfg(test)` every acquisition is
/// counted ([`lock_probe`]), so tests can pin paths that must take none.
fn read(tab: &'static RwLock<Tab>) -> RwLockReadGuard<'static, Tab> {
    #[cfg(test)]
    lock_probe::bump();
    tab.read().expect("interner poisoned")
}

/// Write access to a table; counted like [`read`].
fn write(tab: &'static RwLock<Tab>) -> RwLockWriteGuard<'static, Tab> {
    #[cfg(test)]
    lock_probe::bump();
    tab.write().expect("interner poisoned")
}

/// Per-thread count of interner lock acquisitions (test builds only).
#[cfg(test)]
pub(crate) mod lock_probe {
    use std::cell::Cell;

    thread_local! {
        static TAKEN: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump() {
        TAKEN.with(|t| t.set(t.get() + 1));
    }

    /// Interner locks this thread has taken so far.
    pub(crate) fn taken() -> u64 {
        TAKEN.with(Cell::get)
    }
}

fn sym_tab() -> &'static RwLock<Tab> {
    static TAB: OnceLock<RwLock<Tab>> = OnceLock::new();
    TAB.get_or_init(|| RwLock::new(Tab::default()))
}

fn meta_tab() -> &'static RwLock<Tab> {
    static TAB: OnceLock<RwLock<Tab>> = OnceLock::new();
    TAB.get_or_init(|| RwLock::new(Tab::default()))
}

/// An interned name: a `Copy` handle whose equality is one integer compare.
///
/// Serializes as the string it names, so wire formats (packet traces,
/// design JSON) are unchanged by interning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Interns `name`, returning its stable symbol.
    pub fn intern(name: &str) -> Sym {
        if let Some(s) = Sym::lookup(name) {
            return s;
        }
        Sym(write(sym_tab()).intern(name))
    }

    /// Looks `name` up without interning it. `None` means the name has
    /// never been interned — useful on read paths where an unknown name
    /// can only mean "absent".
    pub fn lookup(name: &str) -> Option<Sym> {
        read(sym_tab()).index.get(name).copied().map(Sym)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        read(sym_tab()).names[self.0 as usize]
    }

    /// The dense id, for tables indexed by symbol.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

impl Serialize for Sym {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Sym {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(Sym::intern)
            .ok_or_else(|| DeError::new("expected string (Sym)"))
    }
}

/// Interns a metadata field name into the dense metadata id space.
pub fn meta_id(name: &str) -> u32 {
    if let Some(id) = meta_id_lookup(name) {
        return id;
    }
    let mut tab = write(meta_tab());
    let id = tab.intern(name);
    META_COUNT.store(tab.names.len(), Ordering::Release);
    id
}

/// Looks a metadata field name up without interning it.
pub fn meta_id_lookup(name: &str) -> Option<u32> {
    read(meta_tab()).index.get(name).copied()
}

/// The name behind a metadata id.
pub fn meta_name(id: u32) -> &'static str {
    read(meta_tab()).names[id as usize]
}

/// Mirror of the metadata table's length, stored under its write lock so
/// [`meta_count`] — read once per recycled packet — takes no lock. The
/// `Release` store after the push pairs with `meta_count`'s `Acquire`
/// load: a reader that sees `n` sees ids `0..n` interned.
static META_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Number of metadata names interned so far — the capacity a packet's
/// metadata vector needs to cover every defined field without resizing.
pub fn meta_count() -> usize {
    META_COUNT.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_stable() {
        let a = Sym::intern("test-sym-ethernet");
        let b = Sym::intern("test-sym-ethernet");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "test-sym-ethernet");
        assert_eq!(Sym::lookup("test-sym-ethernet"), Some(a));
        assert_eq!(Sym::lookup("test-sym-never-interned-xyzzy"), None);
    }

    #[test]
    fn sym_compares_with_str() {
        let s = Sym::intern("test-sym-ipv4");
        assert!(s == "test-sym-ipv4");
        assert!(s != "test-sym-ipv6");
    }

    #[test]
    fn sym_serde_roundtrips_as_string() {
        let s = Sym::intern("test-sym-serde");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"test-sym-serde\"");
        let back: Sym = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn meta_ids_are_dense_and_separate_from_syms() {
        let a = meta_id("test-meta-a-unique");
        let b = meta_id("test-meta-b-unique");
        assert_ne!(a, b);
        assert_eq!(meta_id("test-meta-a-unique"), a);
        assert_eq!(meta_name(a), "test-meta-a-unique");
        assert!(meta_count() > a.max(b) as usize);
        assert_eq!(meta_id_lookup("test-meta-never-defined-xyzzy"), None);
    }
}
