//! The serving loop: one dedicated thread that owns the model, cache and
//! heads, blocks on the request queue, and answers requests in batches.
//! With a checkpoint watcher configured, the same thread also polls the
//! watched file: its queue wait ends when the next poll is due, and a due
//! poll also runs after each batch.
//!
//! The thread owns the queue's [`Receiver`](crate::channel::Receiver). When
//! the thread exits — after [`Server::shutdown`], or when a panic unwinds
//! it — the receiver drops, every still-queued request drops with its reply
//! slot, and every later send fails, so each client call returns
//! `Err(ServeError::Closed)` instead of blocking forever.
//!
//! # Batching
//!
//! The loop waits for the first queued request, then drains up to
//! `max_batch - 1` more without waiting (natural batching: under load the
//! queue is never empty, so batches fill; at low load requests are served
//! solo with no added latency — there is no artificial batch timer). Cache
//! misses in a batch go through one
//! [`TrainedRepresenter::embed_batch_with`] call over a long-lived
//! [`BatchScratch`], so steady-state batches allocate nothing beyond the
//! result vectors.
//!
//! # Hot reload
//!
//! The model lives in an `Arc<TrainedRepresenter>`. Reload (from a watched
//! [`EngineCheckpoint`] file or an explicit [`Client::reload`]) builds the
//! replacement off the old Arc's shared encoder tables, then atomically
//! swaps the Arc and clears the cache. In-flight requests are never dropped:
//! they sit in the queue during the swap and are served by the new model.
//! The cache's epoch fence guarantees a batch computed against the old model
//! can never repopulate the cache after the swap (see
//! [`EmbeddingCache::insert`]).

use std::path::PathBuf as FsPathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use wsccl_core::encoder::BatchScratch;
use wsccl_core::persist::EngineCheckpoint;
use wsccl_core::TrainedRepresenter;
use wsccl_downstream::index::{Neighbor, VectorIndex};
use wsccl_downstream::GbRegressor;
use wsccl_roadnet::Path;
use wsccl_traffic::SimTime;

use crate::cache::{CacheStats, EmbeddingCache};
use crate::channel::{mpsc, oneshot, OneSender, Receiver, Sender};

/// Serving configuration; `Default` is tuned for one core.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Max requests fused into one forward pass (and one response sweep).
    pub max_batch: usize,
    /// Total LRU entries across shards; 0 disables the cache.
    pub cache_capacity: usize,
    pub cache_shards: usize,
    /// Checkpoint file to poll for hot reload (an [`EngineCheckpoint`]).
    /// Writers should save to a temp file and rename into place.
    pub watch: Option<FsPathBuf>,
    pub reload_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            cache_capacity: 4096,
            cache_shards: 8,
            watch: None,
            reload_poll: Duration::from_millis(100),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down; the request was not served.
    Closed,
    /// ETA requested but no ETA head is installed.
    NoEtaHead,
    /// Similarity search requested but no vector index is installed.
    NoIndex,
    /// Empty paths have no embedding.
    EmptyPath,
    /// The path holds an edge id the served encoder has no features for.
    UnknownEdge,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
            ServeError::NoEtaHead => write!(f, "no ETA head installed"),
            ServeError::NoIndex => write!(f, "no vector index installed"),
            ServeError::EmptyPath => write!(f, "empty path"),
            ServeError::UnknownEdge => write!(f, "path holds an edge id unknown to the encoder"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Snapshot of server counters, returned by [`Client::stats`] and as the
/// final word of [`Server::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Embedding/ETA items answered (an `embed_many` of k counts k).
    pub served: u64,
    /// Forward-pass batches executed (cache-complete batches run none).
    pub batches: u64,
    /// Embeddings computed through the batched forward pass.
    pub batched_embeds: u64,
    /// Top-k similarity searches answered through the installed index.
    pub knn_served: u64,
    pub reloads: u64,
    /// Reloads rejected (load error or encoder-config mismatch).
    pub reload_errors: u64,
    pub max_batch_seen: usize,
    pub cache: CacheStats,
}

enum Request {
    Embed {
        path: Path,
        departure: SimTime,
        enq: Instant,
        resp: OneSender<Result<Arc<Vec<f64>>, ServeError>>,
    },
    /// One round trip for several queries (e.g. the k candidate routes of a
    /// ranking request): one queue wake and one reply wake regardless of
    /// `queries.len()`, and the items land in the same fused forward pass.
    EmbedMany {
        queries: Vec<(Path, SimTime)>,
        enq: Instant,
        resp: OneSender<Vec<Result<Arc<Vec<f64>>, ServeError>>>,
    },
    Eta {
        path: Path,
        departure: SimTime,
        enq: Instant,
        resp: OneSender<Result<f64, ServeError>>,
    },
    /// Top-k similar trips: the query path's embedding rides the same fused
    /// forward pass / cache as Embed and Eta; the index search runs on the
    /// resolved embedding during the reply sweep.
    Knn {
        path: Path,
        departure: SimTime,
        k: usize,
        enq: Instant,
        resp: OneSender<Result<Vec<Neighbor>, ServeError>>,
    },
    SetEtaHead {
        head: Box<GbRegressor>,
        resp: OneSender<()>,
    },
    SetIndex {
        index: Arc<dyn VectorIndex>,
        resp: OneSender<()>,
    },
    Reload {
        rep: Box<TrainedRepresenter>,
        resp: OneSender<()>,
    },
    Stats {
        resp: OneSender<ServeStats>,
    },
    Shutdown {
        resp: OneSender<ServeStats>,
    },
}

struct State {
    model: Arc<TrainedRepresenter>,
    eta_head: Option<Arc<GbRegressor>>,
    index: Option<Arc<dyn VectorIndex>>,
    cache: EmbeddingCache,
    scratch: BatchScratch,
    stats: ServeStats,
}

impl State {
    fn snapshot(&self) -> ServeStats {
        ServeStats { cache: self.cache.stats(), ..self.stats }
    }

    fn swap_model(&mut self, rep: TrainedRepresenter) {
        self.model = Arc::new(rep);
        self.stats.reloads += 1;
        wsccl_obs::global().counter("serve.reloads").inc();
        // Clear *after* the swap: the serve thread runs this between
        // batches, so no batch interleaves; the epoch bump fences any
        // conceptually-older insert regardless.
        self.cache.clear();
    }
}

/// A handle to a running server thread. Cloneable request access goes
/// through [`Server::client`]; dropping the `Server` shuts it down.
pub struct Server {
    client: Client,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Cheap cloneable client handle; safe to use from any thread. Calls block
/// until the server responds, and return `Err(ServeError::Closed)` once the
/// server thread has exited.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Request>,
}

impl Server {
    /// Spawn the serving thread around a trained representer.
    pub fn spawn(rep: TrainedRepresenter, cfg: ServeConfig) -> Server {
        let (tx, rx) = mpsc::<Request>();
        let handle = std::thread::Builder::new()
            .name("wsccl-serve".into())
            .spawn(move || run_server(rep, cfg, rx))
            .expect("spawn serve thread");
        Server { client: Client { tx }, handle: Some(handle) }
    }

    pub fn client(&self) -> Client {
        self.client.clone()
    }

    /// Drain every queued request, stop the thread, and return final stats
    /// (default stats if the thread had already exited).
    pub fn shutdown(mut self) -> ServeStats {
        self.stop()
    }

    fn stop(&mut self) -> ServeStats {
        let stats = self.client.call(|resp| Request::Shutdown { resp }).unwrap_or_default();
        self.handle.take().map(|h| h.join().ok());
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

impl Client {
    /// One round trip: enqueue the request built around a fresh reply slot
    /// and block for the answer.
    fn call<R: Send>(&self, req: impl FnOnce(OneSender<R>) -> Request) -> Result<R, ServeError> {
        let (rtx, rrx) = oneshot();
        self.tx.send(req(rtx)).map_err(|_| ServeError::Closed)?;
        rrx.recv().ok_or(ServeError::Closed)
    }

    /// Embedding for `path` departing at `departure`; served from the LRU
    /// cache when warm, otherwise computed in the next batch.
    pub fn embed(&self, path: &Path, departure: SimTime) -> Result<Arc<Vec<f64>>, ServeError> {
        self.call(|resp| Request::Embed {
            path: path.clone(),
            departure,
            enq: Instant::now(),
            resp,
        })?
    }

    /// Embeddings for several `(path, departure)` queries in one round trip
    /// — the bulk shape for route ranking, where each user query carries k
    /// candidate paths. The whole group shares one queue wake and one reply
    /// wake, and its cache misses are fused into the same batched forward
    /// pass, so per-embedding overhead is `1/k` of [`Client::embed`]'s.
    /// Results come back in query order; a bad path (`EmptyPath`,
    /// `UnknownEdge`) fails only its own slot.
    pub fn embed_many(
        &self,
        queries: &[(&Path, SimTime)],
    ) -> Result<Vec<Result<Arc<Vec<f64>>, ServeError>>, ServeError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.call(|resp| Request::EmbedMany {
            queries: queries.iter().map(|&(p, t)| (p.clone(), t)).collect(),
            enq: Instant::now(),
            resp,
        })
    }

    /// Estimated travel time (seconds) via the installed ETA head over the
    /// (possibly cached) embedding.
    pub fn eta(&self, path: &Path, departure: SimTime) -> Result<f64, ServeError> {
        self.call(|resp| Request::Eta { path: path.clone(), departure, enq: Instant::now(), resp })?
    }

    /// Top-k most similar stored trips to `(path, departure)` via the
    /// installed vector index. The query embedding is resolved exactly like
    /// [`Client::embed`] (cache, then fused batch), so repeated queries are
    /// answered from the LRU cache with only the index scan on top.
    pub fn knn(
        &self,
        path: &Path,
        departure: SimTime,
        k: usize,
    ) -> Result<Vec<Neighbor>, ServeError> {
        self.call(|resp| Request::Knn {
            path: path.clone(),
            departure,
            k,
            enq: Instant::now(),
            resp,
        })?
    }

    /// Install (or replace) the ETA regression head.
    pub fn set_eta_head(&self, head: GbRegressor) -> Result<(), ServeError> {
        self.call(|resp| Request::SetEtaHead { head: Box::new(head), resp })
    }

    /// Install (or replace) the similarity-search index backing
    /// [`Client::knn`]. The index must be built over embeddings of the model
    /// currently served (ids are the caller's business — typically trip
    /// indices into the corpus the index was built from).
    pub fn set_index(&self, index: Arc<dyn VectorIndex>) -> Result<(), ServeError> {
        self.call(|resp| Request::SetIndex { index, resp })
    }

    /// Hot-swap the model in-process (the push-style alternative to the
    /// checkpoint watcher). Returns once the swap is visible.
    pub fn reload(&self, rep: TrainedRepresenter) -> Result<(), ServeError> {
        self.call(|resp| Request::Reload { rep: Box::new(rep), resp })
    }

    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        self.call(|resp| Request::Stats { resp })
    }
}

/// The serve thread's body. `rx` lives in this frame, so it drops — and
/// closes the queue — on return and on a panic unwind alike.
fn run_server(rep: TrainedRepresenter, cfg: ServeConfig, rx: Receiver<Request>) {
    let mut state = State {
        model: Arc::new(rep),
        eta_head: None,
        index: None,
        cache: EmbeddingCache::new(cfg.cache_capacity, cfg.cache_shards),
        scratch: BatchScratch::default(),
        stats: ServeStats::default(),
    };
    let max_batch = cfg.max_batch.max(1);
    let mut watcher = cfg.watch.map(|path| Watcher::new(path, cfg.reload_poll));
    let mut batch = Vec::with_capacity(max_batch);
    loop {
        if let Some(first) = rx.recv_until(watcher.as_ref().map(|w| w.next_poll)) {
            let mut size = request_items(&first);
            batch.push(first);
            while size < max_batch {
                match rx.try_recv() {
                    Some(r) => {
                        size += request_items(&r);
                        batch.push(r);
                    }
                    None => break,
                }
            }
            if let Some(resp) = process_batch(&mut state, &mut batch) {
                // Drain-on-shutdown: everything queued by now is still
                // served; anything sent later fails with `Closed`.
                let mut rest = std::iter::from_fn(|| rx.try_recv()).collect::<Vec<_>>().into_iter();
                loop {
                    batch.extend(rest.by_ref().take(max_batch));
                    if batch.is_empty() {
                        break;
                    }
                    process_batch(&mut state, &mut batch);
                }
                resp.send(state.snapshot());
                return;
            }
        }
        if let Some(w) = &mut watcher {
            w.poll_if_due(&mut state);
        }
    }
}

/// Embedding items a request contributes toward `max_batch` (control
/// requests pass through regardless).
fn request_items(req: &Request) -> usize {
    match req {
        Request::EmbedMany { queries, .. } => queries.len().max(1),
        _ => 1,
    }
}

/// Handle one batch; returns the shutdown responder if a shutdown was
/// requested. Control requests (stats/reload/set-head) execute before the
/// embedding work of the same batch.
fn process_batch(st: &mut State, batch: &mut Vec<Request>) -> Option<OneSender<ServeStats>> {
    let started = Instant::now();
    let mut shutdown = None;
    let mut work: Vec<Request> = Vec::with_capacity(batch.len());
    for req in batch.drain(..) {
        match req {
            Request::SetEtaHead { head, resp } => {
                st.eta_head = Some(Arc::from(head));
                resp.send(());
            }
            Request::SetIndex { index, resp } => {
                st.index = Some(index);
                resp.send(());
            }
            Request::Reload { rep, resp } => {
                st.swap_model(*rep);
                resp.send(());
            }
            Request::Stats { resp } => resp.send(st.snapshot()),
            Request::Shutdown { resp } => shutdown = Some(resp),
            other => work.push(other),
        }
    }
    if work.is_empty() {
        return shutdown;
    }

    let obs = wsccl_obs::global();
    let queue_us = obs.latency_us("serve.queue_us");
    for req in &work {
        let enq = match req {
            Request::Embed { enq, .. }
            | Request::Eta { enq, .. }
            | Request::Knn { enq, .. }
            | Request::EmbedMany { enq, .. } => *enq,
            _ => unreachable!("control requests were split off"),
        };
        queue_us.record(enq.elapsed().as_nanos() as f64 / 1e3);
    }

    // Resolve each embedding item (an Embed/Eta/Knn carries one, an
    // EmbedMany several) against the cache, after rejecting bad paths; batch
    // the misses through one fused pass. Items are flattened in request
    // order so the reply sweep below walks them with a cursor.
    let epoch = st.cache.epoch();
    let mut embeddings: Vec<Result<Arc<Vec<f64>>, ServeError>> = Vec::new();
    {
        let mut items: Vec<(&Path, SimTime)> = Vec::with_capacity(work.len());
        for req in &work {
            match req {
                Request::Embed { path, departure, .. }
                | Request::Eta { path, departure, .. }
                | Request::Knn { path, departure, .. } => items.push((path, *departure)),
                Request::EmbedMany { queries, .. } => {
                    items.extend(queries.iter().map(|(p, t)| (p, *t)))
                }
                _ => unreachable!(),
            }
        }
        embeddings.resize(items.len(), Err(ServeError::EmptyPath));
        let num_edges = st.model.encoder_arc().num_edges();
        let cache_on = st.cache.enabled();
        let mut miss_idx: Vec<usize> = Vec::with_capacity(items.len());
        for (i, &(path, departure)) in items.iter().enumerate() {
            if path.is_empty() {
                continue; // answered with EmptyPath
            }
            if path.edges().iter().any(|e| e.index() >= num_edges) {
                embeddings[i] = Err(ServeError::UnknownEdge);
                continue;
            }
            if !cache_on {
                // Disabled cache: don't even hash the path.
                miss_idx.push(i);
                continue;
            }
            let key = EmbeddingCache::key(path, departure);
            match st.cache.get(&key, path) {
                Some(v) => embeddings[i] = Ok(v),
                None => miss_idx.push(i),
            }
        }
        if !miss_idx.is_empty() {
            let queries: Vec<(&Path, SimTime)> = miss_idx.iter().map(|&i| items[i]).collect();
            let computed = st.model.embed_batch_with(&queries, &mut st.scratch);
            st.stats.batches += 1;
            st.stats.batched_embeds += miss_idx.len() as u64;
            st.stats.max_batch_seen = st.stats.max_batch_seen.max(miss_idx.len());
            obs.histogram("serve.batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
                .record(miss_idx.len() as f64);
            for (&i, emb) in miss_idx.iter().zip(computed) {
                let emb = Arc::new(emb);
                if cache_on {
                    let (path, departure) = items[i];
                    st.cache.insert(
                        EmbeddingCache::key(path, departure),
                        path,
                        Arc::clone(&emb),
                        epoch,
                    );
                }
                embeddings[i] = Ok(emb);
            }
        }
        st.stats.served += items.len() as u64;
    }

    let mut results = embeddings.into_iter();
    for req in work {
        match req {
            Request::Embed { resp, .. } => {
                resp.send(results.next().expect("one result per item"));
            }
            Request::EmbedMany { queries, resp, .. } => {
                resp.send(results.by_ref().take(queries.len()).collect());
            }
            Request::Eta { resp, .. } => {
                let emb = results.next().expect("one result per item");
                resp.send(emb.and_then(|emb| {
                    let head = st.eta_head.as_ref().ok_or(ServeError::NoEtaHead)?;
                    Ok(head.predict(&emb))
                }));
            }
            Request::Knn { k, resp, .. } => {
                let emb = results.next().expect("one result per item");
                resp.send(emb.and_then(|emb| {
                    let index = st.index.as_ref().ok_or(ServeError::NoIndex)?;
                    let q: Vec<f32> = emb.iter().map(|&x| x as f32).collect();
                    st.stats.knn_served += 1;
                    Ok(index.knn(&q, k))
                }));
            }
            _ => unreachable!(),
        }
    }
    obs.latency_us("serve.batch_us").record(started.elapsed().as_nanos() as f64 / 1e3);
    shutdown
}

fn checkpoint_fingerprint(path: &FsPathBuf) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Polls the watched checkpoint file from the serve thread; on change, waits
/// one more poll for the write to quiesce, then loads + validates + swaps. A
/// load failure (partial write, version/config mismatch) is counted and
/// skipped; the old model keeps serving.
struct Watcher {
    path: FsPathBuf,
    poll: Duration,
    next_poll: Instant,
    last_seen: Option<(SystemTime, u64)>,
    pending: bool,
}

impl Watcher {
    fn new(path: FsPathBuf, poll: Duration) -> Self {
        let last_seen = checkpoint_fingerprint(&path);
        Self { path, poll, next_poll: Instant::now() + poll, last_seen, pending: false }
    }

    fn poll_if_due(&mut self, state: &mut State) {
        let now = Instant::now();
        if now < self.next_poll {
            return;
        }
        self.next_poll = now + self.poll;
        let cur = checkpoint_fingerprint(&self.path);
        if cur != self.last_seen {
            self.last_seen = cur;
            self.pending = cur.is_some();
            return; // debounce: re-check next poll before loading
        }
        if !std::mem::take(&mut self.pending) {
            return;
        }
        if let Err(err) = try_reload(state, &self.path) {
            state.stats.reload_errors += 1;
            wsccl_obs::global().counter("serve.reload.errors").inc();
            eprintln!("wsccl-serve: checkpoint reload from {} failed: {err}", self.path.display());
        }
    }
}

fn try_reload(st: &mut State, path: &FsPathBuf) -> Result<(), String> {
    let cp = EngineCheckpoint::load(path).map_err(|e| e.to_string())?;
    let (encoder, name) = (st.model.encoder_arc(), st.model.name().to_string());
    // The swapped-in weights must match the shared frozen encoder tables.
    // Configs are compared structurally (via their canonical JSON); the
    // encoder seed is the operator's contract — see DESIGN.md §12.
    let current = serde_json::to_string(encoder.config()).map_err(|e| e.to_string())?;
    let incoming = serde_json::to_string(&cp.encoder_config).map_err(|e| e.to_string())?;
    if current != incoming {
        return Err("encoder config mismatch; restart to change architecture".into());
    }
    let rep = TrainedRepresenter::from_parts(encoder, cp.params, cp.weights, name);
    st.swap_model(rep);
    Ok(())
}
