//! The data server: scene + wavelet index + per-client sessions.
//!
//! §IV: "After retrieving the results for all the sub-queries, the server
//! filters the results to avoid transmitting the data that is already
//! available at the client." Each session remembers which coefficients
//! (and which objects' base meshes) a client has already received; query
//! results are filtered against that set before they are costed.
//!
//! # Concurrency model (DESIGN.md §10)
//!
//! The server is split into two layers so many clients can be served at
//! once (the paper's §III setting — "serving heavy traffic" of continuous
//! window queries):
//!
//! * [`ServerCore`] — the shared **immutable** half: `Arc<SceneIndexData>`
//!   plus `Arc<WaveletIndex>` (which carries the prebuilt `sorted_w`
//!   magnitude distribution inside the data). Every read path takes
//!   `&self` and is lock-free; index searches allocate nothing (the
//!   traversal stack is a thread-local scratch buffer in `mar-rtree`) and
//!   tally I/O through a relaxed atomic.
//! * per-session state, **striped**: sessions are sharded into
//!   [`SESSION_STRIPES`] independent `Mutex<BTreeMap<..>>` shards by
//!   `session_id % SESSION_STRIPES`, so concurrent clients only contend
//!   when they hash to the same stripe — never on one global map.
//!
//! `query`/`fetch_block` therefore take `&self`: a `&Server` can be shared
//! across scoped threads and each client's queries run concurrently.
//! Determinism is preserved because a session's filter state depends only
//! on that session's own query history (pinned by
//! `crates/core/tests/server_concurrent.rs`).
//!
//! # One session layer, two backends
//!
//! [`Server<B>`] is the session layer — stripes, sent-filters, resume
//! tokens, snapshots — over a [`SessionBackend`] that answers the queries.
//! `Server` (that is, `Server<ServerCore>`) serves one core; the sharded
//! [`crate::fleet::FleetServer`] is the same layer over a shard set, so
//! both get identical connect/disconnect/resume semantics and every
//! transmitted coefficient goes through the one `Session::apply_hits`.

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;
use mar_workload::Scene;
// mar-lint: allow(D001) — `HashSet` here backs the membership-only session
// filters below; their iteration order is never observed.
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of session shards. A fixed power of two keeps `id % N` cheap and
/// the shard choice deterministic; 16 stripes already make same-stripe
/// contention rare for the client counts the serve harness replays.
pub const SESSION_STRIPES: usize = 16;

/// Typed failure of a per-session server entry point. Unknown or
/// already-disconnected session ids are a *client protocol* condition (a
/// stale token after a crash, a double disconnect), not a server bug, so
/// they surface as values instead of panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The session id is not (or no longer) connected.
    UnknownSession(u64),
    /// The resume token does not name any connected session. The token is
    /// echoed verbatim — the server never reveals which session id (if
    /// any) a rejected token would have mapped to.
    UnknownToken(u64),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownSession(id) => write!(f, "unknown or disconnected session id {id}"),
            Self::UnknownToken(tok) => write!(f, "unknown resume token {tok:#018x}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Tokens are minted strictly above this floor, so a token can never
/// collide with a raw sequential session id (which would need 2^32
/// connects to reach the floor) — `resume` with a session id is
/// structurally guaranteed to fail, not just overwhelmingly likely to.
const TOKEN_FLOOR: u64 = 1 << 32;

/// `splitmix64`'s finalizing mix — the same discipline `mar_link::fault`
/// uses for its fault schedule. Used only to *expand a seed into a
/// SipHash key*, never to mint a token directly: the mix is a public
/// bijection, so a token minted as `mix64(seed ^ mix64(id))` would leak
/// the seed to any client that inverts its own `(id, token)` pair.
fn mix64(x: u64) -> u64 {
    let z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 of one 64-bit word under a 128-bit key — a keyed PRF, not
/// a bijection: a peer holding any number of `(input, output)` pairs
/// cannot recover the key or predict other outputs. This is what makes
/// resume tokens capabilities rather than obfuscated session ids.
fn siphash24(k0: u64, k1: u64, msg: u64) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    // One full 8-byte block.
    v[3] ^= msg;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= msg;
    // Finalisation block: message length (8) in the top byte.
    let b = 8u64 << 56;
    v[3] ^= b;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= b;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// One word of per-process entropy for the default token key. Tokens are
/// security capabilities, not results: they never enter a transcript,
/// fingerprint, or metric, so they are the one place the repo's
/// determinism discipline (DESIGN.md §5) deliberately does not apply.
fn entropy_word(tag: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    // mar-lint: allow(D003) — token-key entropy is nondeterministic on purpose; tokens never enter any result
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(tag);
    h.finish()
}

/// What [`Server::resume`] reattached: how much server-side filter state
/// survived the transport drop, i.e. how much data will *not* be re-sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeInfo {
    /// The resumed session id (unchanged — the token named it).
    pub session: u64,
    /// Coefficients the server still knows this client holds.
    pub retained_coeffs: usize,
    /// Objects whose base mesh the server still knows this client holds.
    pub retained_objects: usize,
}

/// One sub-query: a region and the resolution band needed inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRegion {
    /// The spatial window.
    pub region: Rect2,
    /// The coefficient magnitude band.
    pub band: ResolutionBand,
}

/// What one server round trip produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryResult {
    /// Coefficients transmitted (after session filtering).
    pub coeffs: usize,
    /// Objects whose base mesh was transmitted for the first time.
    pub new_objects: usize,
    /// Payload bytes (coefficients + new base meshes).
    pub bytes: f64,
    /// Index node accesses.
    pub io: u64,
}

/// One client's server-side state: what it already holds, and its
/// resume capability.
#[derive(Debug, Default)]
pub(crate) struct Session {
    // Membership-only sets on the per-query hot path: every coefficient hit
    // is tested against them, they are never iterated, so O(1) hashing is
    // safe and worthwhile here.
    // mar-lint: allow(D001) — membership-only; iteration order never observed
    sent: HashSet<CoeffRef>,
    // mar-lint: allow(D001) — membership-only; iteration order never observed
    sent_base: HashSet<u32>,
    /// The resume capability minted at connect time; `disconnect` uses it
    /// to release the token-map entry.
    token: u64,
}

impl Session {
    /// Resident filter entries (coefficients + base-mesh markers) — the
    /// state `disconnect` must release.
    fn filter_entries(&self) -> usize {
        self.sent.len() + self.sent_base.len()
    }

    /// Replays one window's hit list (in index search order) through the
    /// sent-filter, accumulating the transmission accounting. Every query
    /// path routes here — batched, scalar and sharded — so they produce
    /// bit-identical [`QueryResult`]s for the same hit stream.
    ///
    /// Every *newly transmitted* coefficient touches its payload page
    /// through `core`'s index (the core that answered) — a no-op in RAM, a
    /// buffer-pool read (and physical-I/O tally on a miss) on the
    /// disk-backed backend. The touch never changes the result, so RAM and
    /// paged transcripts stay byte-identical.
    pub(crate) fn apply_hits(
        &mut self,
        core: &ServerCore,
        hits: &[CoeffRef],
        out: &mut QueryResult,
    ) {
        let data = core.data();
        for &id in hits {
            if self.sent.insert(id) {
                core.index().touch_payload(id);
                out.coeffs += 1;
                out.bytes += data.coeff_bytes;
                if self.sent_base.insert(id.object) {
                    out.new_objects += 1;
                    out.bytes += data.base_bytes[id.object as usize];
                }
            }
        }
    }
}

/// What the session layer needs from whatever answers its queries: a way
/// to drop a departed session's per-session backend state.
pub trait SessionBackend {
    /// Drops `session`'s heat contribution on every buffer pool the
    /// backend reads through (no-op in RAM).
    fn forget_motion(&self, session: u64);
}

/// The shared immutable half of the server: scene-derived index data plus
/// the wavelet index, both behind `Arc` so clones are cheap handle copies.
/// Everything here is read-only after construction — safe to share across
/// any number of client threads without locks.
#[derive(Debug, Clone)]
pub struct ServerCore {
    data: Arc<SceneIndexData>,
    index: Arc<WaveletIndex>,
}

impl ServerCore {
    /// Builds the core (support regions + index) from a scene.
    pub fn new(scene: &Scene) -> Self {
        let data = SceneIndexData::build(scene);
        let index = WaveletIndex::build(&data);
        Self {
            data: Arc::new(data),
            index: Arc::new(index),
        }
    }

    /// Wraps pre-built parts (e.g. an index bulk-loaded in parallel via
    /// [`WaveletIndex::build_jobs`]).
    pub fn from_parts(data: Arc<SceneIndexData>, index: Arc<WaveletIndex>) -> Self {
        Self { data, index }
    }

    /// Builds a **disk-backed** core: writes the complete store image
    /// (tree node pages + coefficient records) to `store_path`, then
    /// serves every index read through a buffer pool of `budget_bytes`
    /// with the given eviction policy. Query and fetch answers are
    /// byte-identical to [`ServerCore::new`] over the same scene.
    pub fn new_paged(
        scene: &Scene,
        store_path: &std::path::Path,
        budget_bytes: usize,
        policy: mar_store::CachePolicy,
    ) -> Result<Self, mar_store::StoreError> {
        let data = SceneIndexData::build(scene);
        crate::store::write_store(store_path, &data)?;
        let index = WaveletIndex::open_paged(store_path, budget_bytes, policy)?;
        Ok(Self {
            data: Arc::new(data),
            index: Arc::new(index),
        })
    }

    /// The scene-derived index data.
    pub fn data(&self) -> &SceneIndexData {
        &self.data
    }

    /// A shared handle to the index data. Planning closures that must
    /// outlive a server borrow (e.g. `bytes_per_block` over the prebuilt
    /// `sorted_w`) clone this handle instead of deep-copying the vector.
    pub fn data_arc(&self) -> Arc<SceneIndexData> {
        Arc::clone(&self.data)
    }

    /// The wavelet index.
    pub fn index(&self) -> &WaveletIndex {
        &self.index
    }

    /// A stateless query (no session filtering): the raw index answer.
    pub fn query_stateless(&self, region: &Rect2, band: ResolutionBand) -> (Vec<CoeffRef>, u64) {
        self.index.query(region, band)
    }

    /// Stateless byte size of a block at a band (planning/estimation).
    /// Only the hit *count* matters here, so the index counts in place
    /// instead of materialising the hit vector.
    pub fn block_bytes_stateless(&self, block: &Rect2, band: ResolutionBand) -> (f64, u64) {
        let (n, io) = self.index.count_in(block, band);
        (n as f64 * self.data.coeff_bytes, io)
    }
}

impl SessionBackend for ServerCore {
    fn forget_motion(&self, session: u64) {
        self.index.forget_motion(session);
    }
}

/// The session layer: a backend (by default one shared [`ServerCore`])
/// plus striped per-session state. All entry points take `&self`; a
/// `&Server` is safe to share across client threads.
#[derive(Debug)]
pub struct Server<B = ServerCore> {
    backend: B,
    stripes: [Mutex<BTreeMap<u64, Session>>; SESSION_STRIPES],
    next_session: AtomicU64,
    /// 128-bit SipHash key minting resume tokens. Never derivable from
    /// any number of observed `(session, token)` pairs — SipHash is a
    /// PRF, unlike the invertible splitmix mix a client could run
    /// backwards on its own handshake to recover the seed.
    token_key: (u64, u64),
    /// Monotone nonce feeding the token PRF (not the session id: the
    /// nonce advances past skipped candidates, so tokens are not even a
    /// per-key function of the id).
    token_nonce: AtomicU64,
    /// Live resume capabilities: token → session id. `resume` is a map
    /// lookup, not an inversion — the server stores what it minted.
    tokens: Mutex<BTreeMap<u64, u64>>,
}

impl Server {
    /// Builds the server (support regions + index) from a scene.
    pub fn new(scene: &Scene) -> Self {
        Self::from_core(ServerCore::new(scene))
    }

    /// Builds the session layer over an existing shared core. The resume
    /// token key is drawn from per-process entropy, so every server
    /// instance mints its own unpredictable token stream — there is no
    /// public default a wire peer could use to mint tokens offline.
    pub fn from_core(core: ServerCore) -> Self {
        Self::with_backend(core)
    }

    /// Builds the session layer over an existing shared core with a
    /// deterministic resume-token key expanded from `token_seed`
    /// (`mar-served --token-seed`). Tokens are then reproducible across
    /// runs for debugging; they stay unforgeable as long as the seed is
    /// secret, because the PRF key cannot be recovered from observed
    /// tokens. A deployment that does not need reproducible tokens should
    /// prefer [`Server::from_core`]'s entropy key.
    pub fn from_core_seeded(core: ServerCore, token_seed: u64) -> Self {
        let k0 = mix64(token_seed ^ 0x6d61_725f_7365_7276); // "mar_serv"
        let k1 = mix64(token_seed ^ 0x746f_6b65_6e5f_6b31); // "token_k1"
        Self::with_key(core, (k0, k1))
    }

    /// The shared immutable core.
    pub fn core(&self) -> &ServerCore {
        &self.backend
    }

    /// The scene-derived index data.
    pub fn data(&self) -> &SceneIndexData {
        self.backend.data()
    }

    /// The wavelet index.
    pub fn index(&self) -> &WaveletIndex {
        self.backend.index()
    }

    /// Executes a batch of sub-queries for a session, filtering out data
    /// the client already holds, and returns the transmission accounting.
    ///
    /// The session's sub-queries run as one grouped index descent
    /// ([`WaveletIndex::for_each_batch`]): tree nodes shared by several
    /// sub-query windows are read once physically, while `io` still
    /// reports the per-sub-query *logical* accesses — exactly what the
    /// one-window-at-a-time walk would have counted. The per-window hit
    /// lists are replayed through the session filter in sub-query order,
    /// so the accounting (including the floating-point byte total) is
    /// bit-identical to the scalar path.
    ///
    /// This is [`Server::query_batch`] of one session, so a scalar and a
    /// batched execution share one descent and one filter replay. The
    /// stripe lock is taken twice — admission, then the filter replay —
    /// and never held across the lock-free index walk.
    ///
    /// An unknown or disconnected session id is a typed
    /// [`SessionError`] — the server never mints filter state for a
    /// session it did not hand out.
    pub fn query(
        &self,
        session: u64,
        regions: &[QueryRegion],
    ) -> Result<QueryResult, SessionError> {
        let (mut results, _) = self.query_batch(&[(session, regions)]);
        results
            .pop()
            .unwrap_or(Err(SessionError::UnknownSession(session)))
    }

    /// Executes every session's sub-queries as **one** cross-session group
    /// descent: the windows of all sessions in `batch` descend the index
    /// together, so a tree node needed by several sessions is read once
    /// physically. Returns the per-session results in caller order plus
    /// the number of unique physical node visits the merged descent
    /// performed (the shared-visit metric).
    ///
    /// Each per-session [`QueryResult`] — coefficients, bytes, *and* its
    /// logical `io` count — is bit-identical to what a separate
    /// [`Server::query`] call would have produced: per-window visit order
    /// equals the scalar search order, windows replay through the session
    /// filter in sub-query order, and logical accesses are counted per
    /// window regardless of physical sharing.
    ///
    /// Locking: session stripes are taken one at a time (existence check
    /// up front, filter application afterwards), never nested with each
    /// other or held across the index descent. A session that disconnects
    /// between the two lock windows surfaces as
    /// [`SessionError::UnknownSession`], the same answer a scalar call in
    /// that race would give.
    pub fn query_batch(
        &self,
        batch: &[(u64, &[QueryRegion])],
    ) -> (Vec<Result<QueryResult, SessionError>>, u64) {
        // Admission: one stripe lock at a time, released before the walk.
        let known: Vec<bool> = batch
            .iter()
            .map(|&(session, _)| self.is_connected(session))
            .collect();
        // Feed each admitted session's window centre into the pool's heat
        // field before the descent reads any pages (no locks held here):
        // the session's predicted motion (Eq. 2) is its first sub-query
        // window's centre this tick. No-op on the in-RAM backend.
        let index = self.backend.index();
        for (s, &(session, regions)) in batch.iter().enumerate() {
            if known[s] {
                if let Some(q) = regions.first() {
                    index.observe_motion(session, q.region.center());
                }
            }
        }
        // One lock-free grouped descent over every admitted session's
        // windows; `ranges[s]` is session slot s's window span.
        let mut queries: Vec<(Rect2, ResolutionBand)> = Vec::new();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(batch.len());
        for (s, &(_, regions)) in batch.iter().enumerate() {
            let start = queries.len();
            if known[s] {
                queries.extend(regions.iter().map(|q| (q.region, q.band)));
            }
            ranges.push((start, queries.len()));
        }
        let mut hits: Vec<Vec<CoeffRef>> = vec![Vec::new(); queries.len()];
        let accesses = index.for_each_batch(&queries, |w, id| hits[w].push(id));
        // Demultiplex: apply each session's filter in caller order. A
        // session that disconnected between admission and apply is
        // unknown by now.
        let out = batch
            .iter()
            .enumerate()
            .map(|(s, &(session, _))| {
                if !known[s] {
                    return Err(SessionError::UnknownSession(session));
                }
                let (start, end) = ranges[s];
                self.with_session(session, |sess| {
                    let mut result = QueryResult::default();
                    for (h, &io) in hits[start..end]
                        .iter()
                        .zip(&accesses.per_window[start..end])
                    {
                        sess.apply_hits(&self.backend, h, &mut result);
                        result.io += io;
                    }
                    result
                })
            })
            .collect();
        (out, accesses.unique)
    }

    /// A stateless query (no session filtering): the raw index answer.
    pub fn query_stateless(&self, region: &Rect2, band: ResolutionBand) -> (Vec<CoeffRef>, u64) {
        self.backend.query_stateless(region, band)
    }

    /// Payload bytes of one block-granularity fetch: every coefficient
    /// whose support intersects `block` within `band`, plus base meshes
    /// the session has not yet received. Used by the buffered clients.
    /// Unknown sessions surface as a typed [`SessionError`], like
    /// [`Server::query`].
    pub fn fetch_block(
        &self,
        session: u64,
        block: &Rect2,
        band: ResolutionBand,
    ) -> Result<QueryResult, SessionError> {
        self.query(
            session,
            &[QueryRegion {
                region: *block,
                band,
            }],
        )
    }

    /// Stateless byte size of a block at a band (planning/estimation).
    pub fn block_bytes_stateless(&self, block: &Rect2, band: ResolutionBand) -> (f64, u64) {
        self.backend.block_bytes_stateless(block, band)
    }
}

impl<B: SessionBackend> Server<B> {
    /// The session layer over `backend`, with a resume-token key drawn
    /// from per-process entropy (see [`Server::from_core`]).
    pub(crate) fn with_backend(backend: B) -> Self {
        Self::with_key(backend, (entropy_word(1), entropy_word(2)))
    }

    fn with_key(backend: B, token_key: (u64, u64)) -> Self {
        Self {
            backend,
            stripes: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            next_session: AtomicU64::new(0),
            token_key,
            token_nonce: AtomicU64::new(0),
            tokens: Mutex::new(BTreeMap::new()),
        }
    }

    /// The backend answering this layer's queries.
    pub(crate) fn backend(&self) -> &B {
        &self.backend
    }

    /// The stripe holding `session`'s filter state.
    fn stripe(&self, session: u64) -> &Mutex<BTreeMap<u64, Session>> {
        &self.stripes[(session % SESSION_STRIPES as u64) as usize]
    }

    /// Opens a client session; returns its id. Ids are handed out in call
    /// order, so a program that connects sessions deterministically gets
    /// deterministic ids.
    pub fn connect(&self) -> u64 {
        self.connect_with_token().0
    }

    /// Opens a client session; returns `(id, resume token)`. This is what
    /// wire endpoints use: the token is minted and registered atomically
    /// with the session, so there is no window where a connected session
    /// has no capability.
    pub fn connect_with_token(&self) -> (u64, u64) {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let token = {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let mut tokens = self.tokens.lock().expect("token map poisoned");
            loop {
                let nonce = self.token_nonce.fetch_add(1, Ordering::Relaxed);
                let candidate = siphash24(self.token_key.0, self.token_key.1, nonce);
                // Skip the (astronomically rare) candidates that could be
                // mistaken for a session id or collide with a live token.
                if candidate < TOKEN_FLOOR || tokens.contains_key(&candidate) {
                    continue;
                }
                tokens.insert(candidate, id);
                break candidate;
            }
        };
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        let mut stripe = self.stripe(id).lock().expect("session stripe poisoned");
        stripe.insert(
            id,
            Session {
                token,
                ..Session::default()
            },
        );
        (id, token)
    }

    /// Drops a session (client disconnected), releasing its sent-filter
    /// state with it — long-running serve workloads must not accumulate
    /// filters for clients that are gone (pinned by
    /// `disconnect_releases_filter_state`). Disconnecting an unknown or
    /// already-disconnected id is a typed error, so a double disconnect
    /// cannot silently pass for a real teardown.
    pub fn disconnect(&self, session: u64) -> Result<(), SessionError> {
        let sess = {
            let mut stripe = self
                .stripe(session)
                .lock()
                // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
                .expect("session stripe poisoned");
            stripe
                .remove(&session)
                .ok_or(SessionError::UnknownSession(session))?
        };
        // Retire the capability with the session, so a stale token can
        // never resume a future session that happens to reuse state.
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        let mut tokens = self.tokens.lock().expect("token map poisoned");
        tokens.remove(&sess.token);
        drop(tokens);
        // And its heat contribution: a gone client must not keep pages
        // warm (no-op on the in-RAM backend).
        self.backend.forget_motion(session);
        Ok(())
    }

    /// The resume token minted for a *connected* session — a lookup of
    /// server-side state, not a derivation. There is no public function
    /// from session ids to tokens: tokens come from a keyed PRF over a
    /// private nonce stream, so observing any number of `(id, token)`
    /// pairs (every client sees its own in `WELCOME`) reveals nothing
    /// about any other session's token. An unknown or disconnected id is
    /// a typed [`SessionError`].
    pub fn session_token(&self, session: u64) -> Result<u64, SessionError> {
        let stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        stripe
            .get(&session)
            .map(|sess| sess.token)
            .ok_or(SessionError::UnknownSession(session))
    }

    /// Reattaches a client to its session after a *transport* drop (the
    /// wireless link died; the server-side session state did not). The
    /// caller presents the resume **token** it was handed at connect time
    /// ([`session_token`]) — *not* the raw session id, which is sequential
    /// and therefore guessable by any other wire peer. The token is looked
    /// up in the server's capability map; if it names a session the server
    /// still holds, the client resumes with its sent-filter intact —
    /// nothing already delivered is ever re-sent — and learns how much
    /// state was retained. Any other token (stale, forged, or a raw
    /// session id — tokens are minted above 2^32, so ids can never alias
    /// them) is a typed [`SessionError`] echoing only the token itself;
    /// the client must [`connect`] fresh and refetch from scratch.
    ///
    /// [`connect`]: Server::connect
    /// [`session_token`]: Server::session_token
    pub fn resume(&self, token: u64) -> Result<ResumeInfo, SessionError> {
        let session = {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let tokens = self.tokens.lock().expect("token map poisoned");
            tokens
                .get(&token)
                .copied()
                .ok_or(SessionError::UnknownToken(token))?
        };
        let stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        stripe
            .get(&session)
            .map(|sess| ResumeInfo {
                session,
                retained_coeffs: sess.sent.len(),
                retained_objects: sess.sent_base.len(),
            })
            // A disconnect can race between the two locks; the answer is
            // the same either way — the capability no longer resumes.
            .ok_or(SessionError::UnknownToken(token))
    }

    /// True while `session` is connected (one stripe lock).
    pub(crate) fn is_connected(&self, session: u64) -> bool {
        self.stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned")
            .contains_key(&session)
    }

    /// Runs `f` on `session`'s state under its stripe lock — the one
    /// place a query replays hits through a session filter. An unknown or
    /// disconnected id is a typed [`SessionError`] and `f` does not run.
    pub(crate) fn with_session<R>(
        &self,
        session: u64,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, SessionError> {
        let mut stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        let sess = stripe
            .get_mut(&session)
            .ok_or(SessionError::UnknownSession(session))?;
        Ok(f(sess))
    }

    /// A sorted snapshot of every coefficient the session has been sent —
    /// the client's resident set as the server knows it. Sorting makes the
    /// snapshot deterministic even though the filter itself is a
    /// membership-only hash set; the chaos harness fingerprints this to
    /// prove faulty runs converge to the fault-free resident set.
    pub fn session_sent_set(&self, session: u64) -> Result<Vec<CoeffRef>, SessionError> {
        let stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        let sess = stripe
            .get(&session)
            .ok_or(SessionError::UnknownSession(session))?;
        let mut refs: Vec<CoeffRef> = sess.sent.iter().copied().collect();
        refs.sort_unstable();
        Ok(refs)
    }

    /// Number of currently connected sessions, across all stripes.
    pub fn session_count(&self) -> usize {
        self.stripes
            .iter()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .map(|s| s.lock().expect("session stripe poisoned").len())
            .sum()
    }

    /// Total resident filter entries (sent coefficients + sent base-mesh
    /// markers) across every connected session — the quantity that must
    /// return to zero when all clients disconnect.
    pub fn resident_filter_entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
                    .expect("session stripe poisoned")
                    .values()
                    .map(Session::filter_entries)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::Point2;
    use mar_workload::{Scene, SceneConfig};

    fn server() -> Server {
        let mut cfg = SceneConfig::paper(5, 21);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        Server::new(&Scene::generate(cfg))
    }

    fn whole() -> QueryRegion {
        QueryRegion {
            region: Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0])),
            band: ResolutionBand::FULL,
        }
    }

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Server>();
        assert_sync_send::<ServerCore>();
    }

    #[test]
    fn repeat_queries_send_nothing_new() {
        let s = server();
        let c = s.connect();
        let r1 = s.query(c, &[whole()]).unwrap();
        assert!(r1.coeffs > 0);
        assert!(r1.bytes > 0.0);
        assert_eq!(r1.new_objects, 5);
        let r2 = s.query(c, &[whole()]).unwrap();
        assert_eq!(r2.coeffs, 0);
        assert_eq!(r2.bytes, 0.0);
        assert_eq!(r2.new_objects, 0);
        assert!(r2.io > 0, "index is still searched");
    }

    #[test]
    fn sessions_are_independent() {
        let s = server();
        let a = s.connect();
        let b = s.connect();
        let ra = s.query(a, &[whole()]).unwrap();
        let rb = s.query(b, &[whole()]).unwrap();
        assert_eq!(ra.coeffs, rb.coeffs);
    }

    #[test]
    fn query_batch_matches_scalar_queries_bit_for_bit() {
        // Two servers over the same scene: one answers session by session,
        // the other answers every session in one grouped descent. Every
        // per-session result — including the f64 byte totals and logical
        // io — must be identical.
        let scalar = server();
        let batched = server();
        let regions: Vec<Vec<QueryRegion>> = (0..5)
            .map(|k| {
                let x = 80.0 * k as f64;
                vec![
                    QueryRegion {
                        region: Rect2::new(
                            Point2::new([x, 100.0]),
                            Point2::new([x + 400.0, 620.0]),
                        ),
                        band: ResolutionBand::FULL,
                    },
                    QueryRegion {
                        region: Rect2::new(
                            Point2::new([x, 100.0]),
                            Point2::new([x + 650.0, 880.0]),
                        ),
                        band: ResolutionBand::new(0.4, 1.0),
                    },
                ]
            })
            .collect();
        let sessions_a: Vec<u64> = (0..5).map(|_| scalar.connect()).collect();
        let sessions_b: Vec<u64> = (0..5).map(|_| batched.connect()).collect();
        for round in 0..3 {
            let want: Vec<QueryResult> = sessions_a
                .iter()
                .enumerate()
                .map(|(k, &c)| scalar.query(c, &regions[(k + round) % 5]).unwrap())
                .collect();
            let batch: Vec<(u64, &[QueryRegion])> = sessions_b
                .iter()
                .enumerate()
                .map(|(k, &c)| (c, regions[(k + round) % 5].as_slice()))
                .collect();
            let (got, unique) = batched.query_batch(&batch);
            let logical: u64 = want.iter().map(|r| r.io).sum();
            assert!(
                unique > 0 && unique <= logical,
                "round {round}: shared descent must not exceed logical io ({unique} vs {logical})"
            );
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.as_ref().unwrap(), w, "round {round} session {k}");
            }
        }
    }

    #[test]
    fn query_batch_reports_unknown_sessions() {
        let s = server();
        let c = s.connect();
        let regions = [whole()];
        let batch: Vec<(u64, &[QueryRegion])> =
            vec![(9999, &regions), (c, &regions), (12345, &regions)];
        let (got, _) = s.query_batch(&batch);
        assert!(matches!(got[0], Err(SessionError::UnknownSession(9999))));
        assert!(got[1].as_ref().unwrap().coeffs > 0);
        assert!(matches!(got[2], Err(SessionError::UnknownSession(12345))));
    }

    #[test]
    fn incremental_band_widening_sends_only_the_difference() {
        let s = server();
        let c = s.connect();
        let region = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        let coarse = s
            .query(
                c,
                &[QueryRegion {
                    region,
                    band: ResolutionBand::new(0.5, 1.0),
                }],
            )
            .unwrap();
        let fine = s
            .query(
                c,
                &[QueryRegion {
                    region,
                    band: ResolutionBand::FULL,
                }],
            )
            .unwrap();
        let total_coeffs = s.data().len();
        assert_eq!(coarse.coeffs + fine.coeffs, total_coeffs);
        assert!(coarse.coeffs < fine.coeffs, "most coefficients are small");
    }

    #[test]
    fn base_mesh_charged_exactly_once_per_object() {
        let s = server();
        let c = s.connect();
        let left = QueryRegion {
            region: Rect2::new(Point2::new([0.0, 0.0]), Point2::new([500.0, 1000.0])),
            band: ResolutionBand::FULL,
        };
        let all = whole();
        let r1 = s.query(c, &[left]).unwrap();
        let r2 = s.query(c, &[all]).unwrap();
        assert_eq!(r1.new_objects + r2.new_objects, 5);
    }

    #[test]
    fn disconnect_forgets_state() {
        let s = server();
        let c = s.connect();
        s.query(c, &[whole()]).unwrap();
        assert!(!s.session_sent_set(c).unwrap().is_empty());
        s.disconnect(c).unwrap();
        assert_eq!(s.session_sent_set(c), Err(SessionError::UnknownSession(c)));
    }

    #[test]
    fn disconnect_releases_filter_state() {
        // Long-running serve workloads churn through sessions; the filter
        // footprint must be bounded by the *connected* sessions, not by
        // the total ever served.
        let s = server();
        assert_eq!(s.resident_filter_entries(), 0);
        for round in 0..50 {
            let c = s.connect();
            let r = s.query(c, &[whole()]).unwrap();
            assert!(r.coeffs > 0, "round {round} fetched data");
            assert!(s.resident_filter_entries() > 0);
            s.disconnect(c).unwrap();
            assert_eq!(
                s.resident_filter_entries(),
                0,
                "round {round} left filter state behind"
            );
        }
        assert_eq!(s.session_count(), 0);
    }

    #[test]
    fn sessions_land_on_distinct_stripes() {
        let s = server();
        let ids: Vec<u64> = (0..SESSION_STRIPES as u64 * 2)
            .map(|_| s.connect())
            .collect();
        // Ids are sequential, so consecutive sessions cover every stripe.
        assert_eq!(ids, (0..SESSION_STRIPES as u64 * 2).collect::<Vec<_>>());
        assert_eq!(s.session_count(), SESSION_STRIPES * 2);
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let s = server();
        assert_eq!(
            s.query(42, &[whole()]),
            Err(SessionError::UnknownSession(42))
        );
        let rect = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([10.0, 10.0]));
        assert_eq!(
            s.fetch_block(42, &rect, ResolutionBand::FULL),
            Err(SessionError::UnknownSession(42))
        );
        assert_eq!(s.disconnect(42), Err(SessionError::UnknownSession(42)));
        assert_eq!(s.resume(42), Err(SessionError::UnknownToken(42)));
        assert_eq!(
            s.session_sent_set(42),
            Err(SessionError::UnknownSession(42))
        );
        // No state was minted along the way.
        assert_eq!(s.session_count(), 0);
        assert_eq!(s.resident_filter_entries(), 0);
    }

    #[test]
    fn resume_retains_the_sent_filter() {
        let s = server();
        let c = s.connect();
        let token = s.session_token(c).unwrap();
        let r = s.query(c, &[whole()]).unwrap();
        assert!(r.coeffs > 0);
        // A transport drop does not touch server state: resuming by token
        // reports the retained filter, and a repeat query still sends
        // nothing new.
        let info = s.resume(token).unwrap();
        assert_eq!(info.session, c);
        assert_eq!(info.retained_coeffs, r.coeffs);
        assert_eq!(info.retained_objects, r.new_objects);
        let again = s.query(c, &[whole()]).unwrap();
        assert_eq!(again.coeffs, 0, "resume must not cause re-sends");
        // After a real disconnect the token is gone for good.
        s.disconnect(c).unwrap();
        assert_eq!(s.resume(token), Err(SessionError::UnknownToken(token)));
        assert_eq!(
            s.session_token(c),
            Err(SessionError::UnknownSession(c)),
            "a disconnected session has no token to look up"
        );
        assert_eq!(
            s.disconnect(c),
            Err(SessionError::UnknownSession(c)),
            "double disconnect is a typed error, not a silent no-op"
        );
    }

    #[test]
    fn resume_rejects_the_raw_session_id() {
        // Regression (ISSUE 6): `resume` used to accept the sequential
        // session id as the token, so any wire peer could resume — and
        // hijack the sent-filter of — any other session by counting.
        let s = server();
        let a = s.connect();
        let b = s.connect();
        s.query(a, &[whole()]).unwrap();
        s.query(b, &[whole()]).unwrap();
        for id in [a, b] {
            assert_eq!(
                s.resume(id),
                Err(SessionError::UnknownToken(id)),
                "a raw session id must not act as a resume token"
            );
        }
        // The real tokens still work, and each names only its own session.
        let ta = s.session_token(a).unwrap();
        let tb = s.session_token(b).unwrap();
        assert_eq!(s.resume(ta).unwrap().session, a);
        assert_eq!(s.resume(tb).unwrap().session, b);
        assert_ne!(ta, tb);
    }

    #[test]
    fn fleet_sessions_resume_by_token() {
        // The fleet is this session layer over a shard set, so its
        // sessions resume exactly like an unsharded server's.
        let mut cfg = SceneConfig::paper(5, 21);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        let scene = Scene::generate(cfg);
        let space = scene.config.space;
        let data = Arc::new(SceneIndexData::build(&scene));
        let fleet = crate::FleetServer::build(&data, space, &crate::FleetConfig::ram(2, 2, false))
            .expect("fleet builds");
        let up = crate::FleetHealth::all_up();
        let (c, token) = fleet.connect_with_token();
        let r = fleet.query(c, up, &space, ResolutionBand::FULL).unwrap();
        assert!(r.result.coeffs > 0);
        let info = fleet.resume(token).unwrap();
        assert_eq!(info.session, c);
        assert_eq!(info.retained_coeffs, r.result.coeffs);
        assert_eq!(info.retained_objects, r.result.new_objects);
        let again = fleet.query(c, up, &space, ResolutionBand::FULL).unwrap();
        assert_eq!(again.result.coeffs, 0, "resume must not cause re-sends");
        assert_eq!(
            fleet.resume(c),
            Err(SessionError::UnknownToken(c)),
            "a raw session id must not act as a resume token"
        );
        fleet.disconnect(c).unwrap();
        assert_eq!(fleet.resume(token), Err(SessionError::UnknownToken(token)));
        assert_eq!(fleet.resident_filter_entries(), 0);
    }

    fn small_core() -> ServerCore {
        ServerCore::new(&{
            let mut cfg = mar_workload::SceneConfig::paper(3, 13);
            cfg.levels = 2;
            cfg.target_bytes = 100_000.0;
            Scene::generate(cfg)
        })
    }

    #[test]
    fn seeded_tokens_are_deterministic_distinct_and_floored() {
        let s1 = Server::from_core_seeded(small_core(), 7);
        let s2 = Server::from_core_seeded(small_core(), 7);
        let s3 = Server::from_core_seeded(small_core(), 8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512u64 {
            let (id1, t1) = s1.connect_with_token();
            let (id2, t2) = s2.connect_with_token();
            let (_, t3) = s3.connect_with_token();
            assert_eq!(id1, id2);
            assert_eq!(t1, t2, "same seed + same connect order → same tokens");
            assert_ne!(t1, t3, "different seeds → different token streams");
            assert!(seen.insert(t1), "token collision");
            assert!(
                t1 >= (1u64 << 32),
                "tokens stay above the floor so sequential ids can never alias them"
            );
            assert_ne!(t1, id1, "token must not echo the id");
            assert_eq!(s1.session_token(id1), Ok(t1), "lookup is stable");
        }
    }

    #[test]
    fn token_seed_is_not_recoverable_from_a_clients_own_handshake() {
        // Regression (ISSUE 6 review): tokens used to be
        // `mix64(seed ^ mix64(id))` — a public *bijection*, so any client
        // could invert its own `(id, token)` pair, recover the seed, and
        // mint every other session's token. Re-enact that attack against
        // the PRF-minted tokens and check it now yields garbage.
        const fn inv_mul(m: u64) -> u64 {
            let mut x = m;
            let mut i = 0;
            while i < 6 {
                x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
                i += 1;
            }
            x
        }
        fn un_xsr(y: u64, s: u32) -> u64 {
            let mut x = y;
            let mut done = 0;
            while done < 64 {
                x = y ^ (x >> s);
                done += s;
            }
            x
        }
        fn unmix64(z: u64) -> u64 {
            let z = un_xsr(z, 31);
            let z = z.wrapping_mul(inv_mul(0x94d0_49bb_1331_11eb));
            let z = un_xsr(z, 27);
            let z = z.wrapping_mul(inv_mul(0xbf58_476d_1ce4_e5b9));
            let z = un_xsr(z, 30);
            z.wrapping_sub(0x9e37_79b9_7f4a_7c15)
        }
        let seed = 0xdead_beef_cafe_f00d;
        let s = Server::from_core_seeded(small_core(), seed);
        let (id0, t0) = s.connect_with_token();
        let (id1, t1) = s.connect_with_token();
        // The old public formula must not mint the token any more…
        assert_ne!(t0, mix64(seed ^ mix64(id0)), "old derivation is dead");
        // …and the old inversion applied to the attacker's own handshake
        // must neither recover the seed nor predict the peer's token.
        let recovered = unmix64(t0) ^ mix64(id0);
        assert_ne!(recovered, seed, "seed recovery attack is dead");
        assert_ne!(
            mix64(recovered ^ mix64(id1)),
            t1,
            "the 'recovered' seed must not mint other sessions' tokens"
        );
    }

    #[test]
    fn default_servers_mint_per_instance_token_streams() {
        // Without an explicit seed the token key comes from per-process
        // entropy: two servers over the same core must not agree on the
        // token for session 0, so there is no public default key a wire
        // peer could use to mint tokens offline.
        let a = Server::from_core(small_core());
        let b = Server::from_core(small_core());
        let (_, ta) = a.connect_with_token();
        let (_, tb) = b.connect_with_token();
        assert_ne!(ta, tb, "default token keys are per-instance entropy");
        assert!(ta >= (1u64 << 32) && tb >= (1u64 << 32));
        // Each server resumes only its own capability.
        assert!(a.resume(ta).is_ok());
        assert_eq!(a.resume(tb), Err(SessionError::UnknownToken(tb)));
    }

    #[test]
    fn session_sent_set_is_a_sorted_snapshot() {
        let s = server();
        let c = s.connect();
        let r = s.query(c, &[whole()]).unwrap();
        let set = s.session_sent_set(c).unwrap();
        assert_eq!(set.len(), r.coeffs);
        assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }
}
