//! Seeded, deterministic operation streams for the serving workloads.
//!
//! The seed fixes everything a client sends: the op kinds and their
//! order, the keys each op touches and the values it writes.  The
//! program under test only ever sees these generated inputs.  Kinds are
//! dealt from shuffled decks, so every seed sends exactly the same mix
//! (per deck cycle) and seeds differ only in order and keys.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A shuffled deck of items, reshuffled each time it runs out.
#[derive(Debug, Clone)]
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(counts: &[(T, usize)]) -> Deck<T> {
        let cards: Vec<T> =
            counts.iter().flat_map(|&(card, n)| std::iter::repeat_n(card, n)).collect();
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// The three read shapes of `serve_mix_10k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// One user by key: a distinct query text per key.
    Point,
    /// A user's followees: a distinct query text per key.
    OneHop,
    /// One fixed 2-hop grouped aggregate: always the same text.
    Grouped,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Point, Shape::OneHop, Shape::Grouped];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Point => "point",
            Shape::OneHop => "onehop",
            Shape::Grouped => "grouped",
        }
    }

    /// The Cypher text of this shape for user `uid`.
    pub fn cypher(self, uid: i64) -> String {
        match self {
            Shape::Point => format!("MATCH (n:USR) WHERE n.UsrId = {uid} RETURN n.UsrName AS name"),
            Shape::OneHop => format!(
                "MATCH (n:USR)-[f:FOLLOWS]->(m:USR) WHERE n.UsrId = {uid} \
                 RETURN m.UsrId AS id, m.UsrName AS name"
            ),
            Shape::Grouped => "MATCH (u:USR)-[f:FOLLOWS]->(v:USR)-[p:POSTED]->(x:PIC) \
                 RETURN v.UsrName AS name, Count(x) AS posts"
                .to_string(),
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A Cypher read and its transpiled SQL twin, on one pinned
    /// generation.
    Read { shape: Shape, uid: i64 },
    /// A new user plus a FOLLOWS edge to a bootstrap user; `key` is
    /// both the user's and the edge's default key.
    Insert { key: i64, followee: i64 },
    /// A new name for a bootstrap user.
    Update { uid: i64, name: String },
    /// Removes one pool user (inserted before the window) and its edge.
    Delete { pool: usize },
}

/// Op-stream parameters shared by every session of a run.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Reads per 10 ops (0 for `ingest_100k`, 9 for `serve_mix_10k`).
    pub reads_per_10: usize,
    /// Bootstrap users per label (keys `0..users`).
    pub users: i64,
    /// Pool users inserted before the window, deletable by the ops.
    pub pool: usize,
    /// Client sessions sharing the store.
    pub sessions: usize,
}

/// Keys of pool users and of users inserted in the window.  Far above
/// any bootstrap key, and disjoint per session.
pub const POOL_BASE: i64 = 10_000_000;
pub const INSERT_BASE: i64 = 20_000_000;
const SESSION_STRIDE: i64 = 1_000_000;

/// The user key, and the key of its FOLLOWS edge, of pool slot `pool`.
/// (Bootstrap edge keys stay below `2 * users`.)
pub fn pool_key(pool: usize) -> i64 {
    POOL_BASE + pool as i64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Update,
    Delete,
}

/// The endless op stream of one session.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    session: usize,
    kinds: Deck<bool>,
    commits: Deck<Kind>,
    shapes: Deck<Shape>,
    /// Next pool slot this session deletes (slots `session`,
    /// `session + sessions`, ...).
    next_pool: usize,
    inserted: i64,
    updated: u64,
}

impl OpStream {
    pub fn new(seed: u64, session: usize, mix: Mix) -> OpStream {
        let mut root = Rng::new(seed ^ 0xB3C4_D5E6_F708_192A);
        for _ in 0..=session {
            root.next_u64();
        }
        OpStream {
            rng: Rng::new(root.next_u64()),
            mix,
            session,
            kinds: Deck::new(&[(true, mix.reads_per_10), (false, 10 - mix.reads_per_10)]),
            commits: Deck::new(&[(Kind::Insert, 5), (Kind::Update, 3), (Kind::Delete, 2)]),
            shapes: Deck::new(&[(Shape::Point, 13), (Shape::OneHop, 6), (Shape::Grouped, 1)]),
            next_pool: session,
            inserted: 0,
            updated: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let rng = &mut self.rng;
        if self.kinds.deal(rng) {
            let shape = self.shapes.deal(rng);
            let uid = rng.below(self.mix.users as u64) as i64;
            return Some(Op::Read { shape, uid });
        }
        let mut kind = self.commits.deal(rng);
        if kind == Kind::Delete && self.next_pool >= self.mix.pool {
            kind = Kind::Insert;
        }
        Some(match kind {
            Kind::Delete => {
                let pool = self.next_pool;
                self.next_pool += self.mix.sessions;
                Op::Delete { pool }
            }
            Kind::Update => {
                // Sessions update disjoint users (uid ≡ session mod
                // sessions), so every final name is determined.
                let sessions = self.mix.sessions as i64;
                let slots = self.mix.users / sessions;
                let uid = rng.below(slots as u64) as i64 * sessions + self.session as i64;
                self.updated += 1;
                Op::Update { uid, name: format!("s{}u{}", self.session, self.updated) }
            }
            _ => {
                let key = INSERT_BASE + self.session as i64 * SESSION_STRIDE + self.inserted;
                self.inserted += 1;
                let followee = rng.below(self.mix.users as u64) as i64;
                Op::Insert { key, followee }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix { reads_per_10: 9, users: 10_000, pool: 64, sessions: 2 };

    #[test]
    fn same_seed_same_ops() {
        for session in 0..2 {
            let a: Vec<Op> = OpStream::new(42, session, MIX).take(5000).collect();
            let b: Vec<Op> = OpStream::new(42, session, MIX).take(5000).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_and_sessions_differ() {
        let a: Vec<Op> = OpStream::new(1, 0, MIX).take(100).collect();
        let b: Vec<Op> = OpStream::new(2, 0, MIX).take(100).collect();
        let c: Vec<Op> = OpStream::new(1, 1, MIX).take(100).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn decks_fix_the_mix_and_keys_stay_disjoint() {
        let ops: Vec<Op> = OpStream::new(7, 1, MIX).take(2000).collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 1800);
        let grouped =
            ops.iter().filter(|o| matches!(o, Op::Read { shape: Shape::Grouped, .. })).count();
        assert_eq!(grouped, 90);
        for op in &ops {
            match op {
                Op::Update { uid, .. } => assert_eq!(uid % 2, 1),
                Op::Delete { pool } => assert!(pool % 2 == 1 && *pool < MIX.pool),
                Op::Insert { key, .. } => assert!(*key >= INSERT_BASE + SESSION_STRIDE),
                Op::Read { uid, .. } => assert!((0..MIX.users).contains(uid)),
            }
        }
    }
}
