package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/obs"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
	"tkcm/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Manager hosts the tenant engines. Required.
	Manager *shard.Manager
	// CheckpointDir, when non-empty, enables snapshot persistence:
	// restore-on-start, the periodic checkpoint loop, and the final
	// checkpoint during Shutdown.
	CheckpointDir string
	// CheckpointInterval is the period of the background checkpoint loop
	// (default 30s; ignored without CheckpointDir).
	CheckpointInterval time.Duration
	// WAL is the write-ahead-log manager shared with the shard manager
	// (shard.Options.WAL). When set, the server replays tenant logs on
	// restore, truncates them after each checkpoint, prunes logs of
	// unhosted tenants, and exposes WAL counters on /metrics. Requires
	// CheckpointDir: the log replays on top of checkpoints.
	WAL *wal.Manager
	// RebalanceInterval is the period of the load-aware rebalancer, which
	// samples per-shard tick rates and migrates at most one tenant off the
	// hottest shard per interval (0 = disabled). Start it with
	// StartRebalancer.
	RebalanceInterval time.Duration
	// FollowURL, when non-empty, starts the server as an asynchronous
	// follower of the primary at this base URL (e.g. "http://primary:8080"):
	// it pulls and verifies the primary's checkpoints and WAL segments
	// instead of serving writes, until Promote. Requires WAL (whose Key must
	// match the primary's) and CheckpointDir. Start pulling with
	// StartFollower.
	FollowURL string
	// FollowInterval is the follower's pull period (default 2s).
	FollowInterval time.Duration
	// Log receives request and checkpoint events (default slog.Default()).
	Log *slog.Logger
	// SlowTickThreshold, when positive, logs one structured trace line (full
	// stage breakdown: decode, queue, engine, wal_commit, ack) for every tick
	// line whose end-to-end ack latency breaches it. Zero disables slow-tick
	// logging. The stage histograms are always on regardless.
	SlowTickThreshold time.Duration
	// TraceSampleEvery, when positive, additionally traces a deterministic
	// 1-in-N sample of all tick lines (N = this value), independent of the
	// threshold. Zero disables sampling.
	TraceSampleEvery int
	// TraceSampleSeed fixes the sampler's phase, making the selection
	// reproducible across runs with the same tick count.
	TraceSampleSeed uint64
}

// Server is the HTTP face of the sharded imputation service. Create with
// New, mount Handler, and call Shutdown to drain and checkpoint.
type Server struct {
	m        *shard.Manager
	wal      *wal.Manager
	mux      *http.ServeMux
	routes   []string
	log      *slog.Logger
	dir      string
	interval time.Duration

	started time.Time

	// Checkpoint loop and shutdown lifecycle. draining tells long-lived
	// tick streams to terminate so the HTTP server can finish Shutdown
	// before the final checkpoint is taken.
	stopCk    chan struct{}
	stopOnce  sync.Once
	ckWG      sync.WaitGroup
	ckMu      sync.Mutex // serializes CheckpointAll (endpoint, ticker, shutdown)
	draining  chan struct{}
	drainOnce sync.Once
	shutOnce  sync.Once
	shutErr   error

	// Service-level counters surfaced on /metrics.
	requests       atomic.Uint64
	tickRows       atomic.Uint64
	checkpoints    atomic.Uint64
	checkpointErrs atomic.Uint64

	// Batched-ingest counters: rows that arrived on batched tick lines, and
	// a histogram of rows-per-batch (buckets batchSizeBuckets, then +Inf).
	batchedRows  atomic.Uint64
	batchCount   atomic.Uint64
	batchSum     atomic.Uint64
	batchBuckets [len(batchSizeBuckets) + 1]atomic.Uint64

	// Rebalancer state: the interval, the last imbalance sample
	// (float64 bits; see imbalanceValue), and the previous per-shard /
	// per-tenant tick counts, touched only by the rebalancer goroutine.
	rbInterval time.Duration
	imbalance  atomic.Uint64
	rbShards   []uint64
	rbTenants  map[string]uint64

	// Follower (replication) state, set when Options.FollowURL is non-empty.
	// replicas is touched only by the puller goroutine (and by Promote, after
	// the puller has been joined).
	follower       bool
	followURL      string
	followEvery    time.Duration
	replClient     *http.Client
	replicas       map[string]*wal.Replica
	stopFollow     chan struct{}
	stopFollowOnce sync.Once
	followWG       sync.WaitGroup
	promoteMu      sync.Mutex
	promoted       atomic.Bool

	// Replication counters surfaced on /metrics. lastManifestNano is the
	// generated-at stamp of the last manifest fully applied (the lag gauge's
	// anchor).
	replRounds       atomic.Uint64
	replErrors       atomic.Uint64
	replSegmentsCtr  atomic.Uint64
	replBytesCtr     atomic.Uint64
	lastManifestNano atomic.Int64

	// Checkpoint digest cache for replication manifests (primary side) and
	// local change detection (follower side), keyed by checkpoint file name.
	ckHashMu sync.Mutex
	ckHashes map[string]ckHashEntry

	// Stage-latency instrumentation: one fixed set of zero-allocation
	// histograms per shard (allocated once in New; Observe is atomics only),
	// the Go runtime telemetry sampler, and the slow/sampled trace recorder.
	// lastAck maps tenant id → *atomic.Int64 end-to-end nanos of the
	// tenant's most recent ack (surfaced by /v1/debug/tenants).
	latency    []shardLatency
	rt         *obs.RuntimeCollector
	sampler    *obs.Sampler
	slowNanos  int64
	traceLines atomic.Uint64
	lastAck    sync.Map
}

// shardLatency is one shard's latency surface: a histogram per tick stage
// plus the end-to-end ack histogram, with the Prometheus label strings
// prerendered so the scrape path never rebuilds them.
type shardLatency struct {
	stages      [obs.NumStages]obs.Histogram
	ack         obs.Histogram
	stageLabels [obs.NumStages]string
	ackLabel    string
}

// batchSizeBuckets are the upper bounds of the rows-per-batch histogram on
// /metrics (a final +Inf bucket follows implicitly).
var batchSizeBuckets = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// observeBatch records one batched tick line of n rows.
func (s *Server) observeBatch(n int) {
	s.batchedRows.Add(uint64(n))
	s.batchCount.Add(1)
	s.batchSum.Add(uint64(n))
	for i, le := range batchSizeBuckets {
		if uint64(n) <= le {
			s.batchBuckets[i].Add(1)
			return
		}
	}
	s.batchBuckets[len(batchSizeBuckets)].Add(1)
}

// tenantIDPattern bounds tenant ids to names that are safe as path segments
// and checkpoint file names.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// New builds a server over opts.Manager. Call StartCheckpointLoop (or let
// cmd/tkcm-serve do it) to begin periodic persistence.
func New(opts Options) *Server {
	if opts.Manager == nil {
		panic("server: Options.Manager is required")
	}
	log := opts.Log
	if log == nil {
		log = slog.Default()
	}
	interval := opts.CheckpointInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	followEvery := opts.FollowInterval
	if followEvery <= 0 {
		followEvery = 2 * time.Second
	}
	s := &Server{
		m:           opts.Manager,
		wal:         opts.WAL,
		mux:         http.NewServeMux(),
		log:         log,
		dir:         opts.CheckpointDir,
		interval:    interval,
		rbInterval:  opts.RebalanceInterval,
		started:     time.Now(),
		stopCk:      make(chan struct{}),
		draining:    make(chan struct{}),
		follower:    opts.FollowURL != "",
		followURL:   strings.TrimRight(opts.FollowURL, "/"),
		followEvery: followEvery,
		replClient:  &http.Client{Timeout: 60 * time.Second},
		replicas:    make(map[string]*wal.Replica),
		stopFollow:  make(chan struct{}),
		ckHashes:    make(map[string]ckHashEntry),
		rt:          obs.NewRuntimeCollector(),
		slowNanos:   opts.SlowTickThreshold.Nanoseconds(),
	}
	if opts.TraceSampleEvery > 0 {
		s.sampler = obs.NewSampler(opts.TraceSampleEvery, opts.TraceSampleSeed)
	}
	s.latency = make([]shardLatency, opts.Manager.Shards())
	for i := range s.latency {
		sl := &s.latency[i]
		for st := 0; st < obs.NumStages; st++ {
			sl.stageLabels[st] = fmt.Sprintf("stage=%q,shard=\"%d\"", obs.Stage(st).String(), i)
		}
		sl.ackLabel = fmt.Sprintf("shard=\"%d\"", i)
	}
	if s.wal != nil && s.dir == "" {
		panic("server: Options.WAL requires Options.CheckpointDir (the log replays on top of checkpoints)")
	}
	if s.follower && s.wal == nil {
		panic("server: Options.FollowURL requires Options.WAL (replication transports the write-ahead log)")
	}
	// handle registers a route on the mux AND in the route manifest that
	// Routes exposes; docs/API.md coverage is asserted against the manifest,
	// so an endpoint added here without documentation fails the build's
	// route-coverage test.
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, h)
		s.routes = append(s.routes, pattern)
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/tenants", s.handleListTenants)
	handle("GET /v1/tenants/{id}", s.handleGetTenant)
	handle("POST /v1/tenants/{id}", s.handleCreateTenant)
	handle("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	handle("POST /v1/tenants/{id}/ticks", s.handleTicks)
	handle("GET /v1/tenants/{id}/snapshot", s.handleSnapshot)
	handle("POST /v1/tenants/{id}/migrate", s.handleMigrate)
	handle("POST /v1/checkpoint", s.handleCheckpoint)
	handle("GET /v1/cluster/routing", s.handleRouting)
	handle("GET /v1/replication/manifest", s.handleReplManifest)
	handle("GET /v1/replication/segment/{tenant}/{name}", s.handleReplSegment)
	handle("GET /v1/replication/checkpoint/{tenant}", s.handleReplCheckpoint)
	handle("POST /v1/promote", s.handlePromote)
	return s
}

// Routes returns every registered route pattern ("METHOD /path"), the
// ground truth the API documentation is tested against.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// Handler returns the HTTP handler tree. An unpromoted follower answers 503
// on everything but health, metrics and promotion — including the
// replication endpoints, which would otherwise advertise its (empty) set of
// open logs as truth to a chained follower.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.follower && !s.promoted.Load() && !s.followerAllowed(r.URL.Path) {
			writeJSON(w, http.StatusServiceUnavailable, apiError{
				Error: fmt.Sprintf("this server is an unpromoted follower of %s; promote it (POST /v1/promote) or address the primary", s.followURL),
				Retry: true,
			})
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// apiError is the uniform JSON error body. Retry marks mid-stream errors a
// sequenced client should answer by reconnecting and replaying from its
// last acked row (drain, durability hiccup) rather than giving up.
type apiError struct {
	Error string `json:"error"`
	Retry bool   `json:"retry,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps manager errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, shard.ErrNoTenant):
		return http.StatusNotFound
	case errors.Is(err, shard.ErrTenantExists):
		return http.StatusConflict
	case errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, wal.ErrLogFailed):
		// A fail-stopped log is a server fault, not bad input: the row was
		// refused before the engine applied it, and /healthz answers 503
		// degraded for the same tenant.
		return http.StatusServiceUnavailable
	case errors.Is(err, shard.ErrSeqGap):
		return http.StatusConflict
	case errors.Is(err, shard.ErrTenantFailed):
		// A hydration fail-stop is a server fault too, but not a retryable
		// one: only deleting the tenant clears it, so a replaying client
		// would spend its reconnect budget for nothing.
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// handleHealth reports liveness AND data-plane health. "ok" is 200;
// "follower" (unpromoted replica: correct config, not serving writes) and
// "degraded" (some tenant's WAL has fail-stopped: its appends are refused
// and nothing more is acknowledged for it) are 503, with enough body for an
// operator — or the client library — to see exactly what is wrong.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	tenants := int64(0)
	for _, st := range s.m.Stats() {
		tenants += st.Tenants
	}
	status, code := "ok", http.StatusOK
	body := map[string]any{
		"shards":         s.m.Shards(),
		"tenants":        tenants,
		"uptime_seconds": int(time.Since(s.started).Seconds()),
	}
	if s.follower && !s.promoted.Load() {
		status, code = "follower", http.StatusServiceUnavailable
		body["primary"] = s.followURL
		body["replication_lag_seconds"] = s.replLagSeconds()
	} else if failed := s.failedWALTenants(); len(failed) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
		body["failed_wal_tenants"] = failed
	}
	body["status"] = status
	writeJSON(w, code, body)
}

// failedWALTenants lists the tenants latched fail-stopped, from either
// direction of the durability contract: a write-ahead log that can no longer
// accept appends (nothing more is acknowledged for the tenant), or a
// hydration that could not rebuild the engine a parked tenant was evicted
// with (acked ticks would be lost by serving the rewound engine). Non-empty
// means the data plane is degraded: /healthz, /metrics, and /v1/debug/tenants
// all answer 503 so every consumer — health checker, scraper, dashboard —
// sees the same world.
func (s *Server) failedWALTenants() []string {
	var failed []string
	if s.wal != nil {
		failed = s.wal.FailedTenants()
	}
	hyd := s.m.FailedTenants()
	if len(hyd) == 0 {
		return failed
	}
	seen := make(map[string]bool, len(failed))
	for _, id := range failed {
		seen[id] = true
	}
	for _, id := range hyd {
		if !seen[id] {
			failed = append(failed, id)
		}
	}
	sort.Strings(failed)
	return failed
}

// replLagSeconds is time since the last fully-applied manifest was generated
// on the primary (time since start when no round has succeeded yet).
func (s *Server) replLagSeconds() float64 {
	if gen := s.lastManifestNano.Load(); gen > 0 {
		return time.Since(time.Unix(0, gen)).Seconds()
	}
	return time.Since(s.started).Seconds()
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	infos, err := s.m.Tenants(r.Context())
	if err != nil {
		writeError(w, statusFor(err), "listing tenants: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, err := s.m.Info(r.Context(), id)
	if err != nil {
		writeError(w, statusFor(err), "tenant %q: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// apiConfig is the JSON shape of a tenant's TKCM configuration. Zero fields
// keep the paper's calibrated defaults (core.DefaultConfig).
type apiConfig struct {
	K             int    `json:"k"`
	PatternLength int    `json:"pattern_length"`
	D             int    `json:"d"`
	WindowLength  int    `json:"window_length"`
	Workers       int    `json:"workers"`
	Profiler      string `json:"profiler"`
	WeightedMean  bool   `json:"weighted_mean"`
}

// toCore overlays the request config onto the defaults.
func (a *apiConfig) toCore() (core.Config, error) {
	cfg := core.DefaultConfig()
	if a == nil {
		return cfg, nil
	}
	if a.K > 0 {
		cfg.K = a.K
	}
	if a.PatternLength > 0 {
		cfg.PatternLength = a.PatternLength
	}
	if a.D > 0 {
		cfg.D = a.D
	}
	if a.WindowLength > 0 {
		cfg.WindowLength = a.WindowLength
	}
	if a.Workers > 0 {
		cfg.Workers = a.Workers
	}
	if a.Profiler != "" {
		k, err := core.ParseProfilerKind(a.Profiler)
		if err != nil {
			return cfg, err
		}
		cfg.Profiler = k
	}
	cfg.WeightedMean = a.WeightedMean
	return cfg, nil
}

type createRequest struct {
	Streams []string            `json:"streams"`
	Config  *apiConfig          `json:"config"`
	Refs    map[string][]string `json:"refs"`
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !tenantIDPattern.MatchString(id) {
		writeError(w, http.StatusBadRequest, "invalid tenant id %q (want %s)", id, tenantIDPattern)
		return
	}
	var req createRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Streams) == 0 {
		writeError(w, http.StatusBadRequest, "streams must be non-empty")
		return
	}
	cfg, err := req.Config.toCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	var refs map[string]core.ReferenceSet
	if len(req.Refs) > 0 {
		refs = make(map[string]core.ReferenceSet, len(req.Refs))
		for stream, cands := range req.Refs {
			refs[stream] = core.ReferenceSet{Stream: stream, Candidates: cands}
		}
	}
	// Once we commit to creating the tenant, finish the job even if the
	// client hangs up: a canceled request context aborting halfway (tenant
	// hosted, base checkpoint missing, rollback also canceled) would leave
	// a WAL with no image to replay onto — acked ticks unrestorable.
	ctx := context.WithoutCancel(r.Context())
	// ckMu spans the engine create (which opens the tenant's WAL directory)
	// and the base-image write, mirroring the delete path: a concurrent
	// CheckpointAll then either runs wholly before (its stale tenant
	// listing cannot see a WAL directory that does not exist yet, so its
	// prune cannot remove it) or wholly after (the tenant and its base
	// checkpoint are both visible).
	s.ckMu.Lock()
	err = s.m.Create(ctx, id, cfg, req.Streams, refs)
	if err == nil && s.wal != nil {
		// With a WAL, every acked tick must be recoverable — which needs a
		// base image (config + streams) the log can replay onto. If it
		// cannot be written the creation is rolled back rather than hosting
		// a tenant whose acks would be empty promises.
		ckErr := os.MkdirAll(s.dir, 0o755)
		if ckErr == nil {
			ckErr = s.checkpointTenant(ctx, id)
		}
		if ckErr != nil {
			s.log.Error("base checkpoint of new tenant failed; rolling back", "tenant", id, "err", ckErr)
			if derr := s.deleteTenantLocked(ctx, id); derr != nil {
				s.log.Error("rolling back tenant create", "tenant", id, "err", derr)
			}
			s.ckMu.Unlock()
			writeError(w, http.StatusInternalServerError, "creating tenant %q: writing base checkpoint: %v", id, ckErr)
			return
		}
	}
	s.ckMu.Unlock()
	if err != nil {
		writeError(w, statusFor(err), "creating tenant %q: %v", id, err)
		return
	}
	s.log.Info("tenant created", "tenant", id, "streams", len(req.Streams), "window", cfg.WindowLength)
	writeJSON(w, http.StatusCreated, map[string]any{"tenant": id, "streams": req.Streams})
}

// deleteTenantLocked removes the tenant's engine, WAL, and checkpoint file.
// Callers must hold ckMu.
func (s *Server) deleteTenantLocked(ctx context.Context, id string) error {
	if err := s.m.Delete(ctx, id); err != nil {
		return err
	}
	return s.removeCheckpoint(id)
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// ckMu spans both the engine delete and the file removal so a concurrent
	// CheckpointAll cannot interleave: it either runs wholly before (its file
	// is removed below) or wholly after (the tenant is gone from its listing,
	// so it writes nothing and prunes leftovers). Without the lock, a rename
	// of an already-captured snapshot could re-create the file after the
	// delete was acknowledged.
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if err := s.m.Delete(r.Context(), id); err != nil {
		writeError(w, statusFor(err), "deleting tenant %q: %v", id, err)
		return
	}
	// Deleting only the engine would not be durable: the tenant's checkpoint
	// file would re-host it — with all its data — on the next restart.
	if err := s.removeCheckpoint(id); err != nil {
		s.log.Error("removing checkpoint of deleted tenant", "tenant", id, "err", err)
		writeError(w, http.StatusInternalServerError,
			"tenant %q deleted, but removing its checkpoint failed (it would resurrect on restart): %v", id, err)
		return
	}
	s.lastAck.Delete(id)
	s.log.Info("tenant deleted", "tenant", id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// tickIn is one NDJSON input line as encoding/json decodes it: values with
// null marking missing, plus an optional client sequence number for
// exactly-once replay (0/absent = unsequenced). A BATCH line instead carries
// rows; seq then numbers the first row. A values line is a one-row batch:
// both shapes are applied in one shard operation and one WAL record, and the
// server acks each row with its own output line, so the response stream is
// identical to sending the rows one per line.
type tickIn struct {
	Seq    uint64       `json:"seq"`
	Values []*float64   `json:"values"`
	Rows   [][]*float64 `json:"rows"`
}

// decodeTickLine decodes one input line into in, reusing in's scratch. The
// strict single-pass wire parser handles the plain shapes the client emits
// with zero allocations; anything unusual — escapes, unknown keys, malformed
// numbers — falls back to encoding/json for identical semantics and errors.
func decodeTickLine(line []byte, in *wire.TickIn) error {
	if wire.ParseTickIn(line, in) {
		return nil
	}
	var jin tickIn
	if err := json.Unmarshal(line, &jin); err != nil {
		return err
	}
	in.Seq = jin.Seq
	in.HasValues = jin.Values != nil
	in.Values = appendNulls(in.Values[:0], jin.Values)
	in.HasRows = jin.Rows != nil
	in.Rows = in.Rows[:0]
	for _, vals := range jin.Rows {
		var dst []float64
		if n := len(in.Rows); n < cap(in.Rows) {
			dst = in.Rows[:n+1][n][:0]
		}
		in.Rows = append(in.Rows, appendNulls(dst, vals))
	}
	return nil
}

// appendNulls appends vals to dst, a JSON null becoming NaN (missing).
func appendNulls(dst []float64, vals []*float64) []float64 {
	for _, v := range vals {
		if v == nil {
			dst = append(dst, math.NaN())
		} else {
			dst = append(dst, *v)
		}
	}
	return dst
}

// tickOut is one NDJSON output line: the row's imputed cells, Values[x]
// being the completed value of stream Imputed[x]. The client holds every
// other cell already — it sent them. A Duplicate ack carries neither: the
// row was already applied and durable.
type tickOut struct {
	Tick      int       `json:"tick"`
	Seq       uint64    `json:"seq"`
	Values    []float64 `json:"values"`
	Imputed   []int     `json:"imputed"`
	Duplicate bool      `json:"duplicate,omitempty"`
}

// maxTickLine bounds one NDJSON input line (1 MiB ≈ a few tens of thousands
// of streams per row), so a hostile line cannot force unbounded allocation
// before the engine's width check runs.
const maxTickLine = 1 << 20

// tickInFlight bounds the acks pending durability per connection. It is the
// window over which one fsync amortizes; past it the reader blocks, which
// is the connection-level backpressure.
const tickInFlight = 256

// ackMsg is one unit of the tick stream's reader→writer pipeline: either an
// ack awaiting its durability commit, or a terminal error.
type ackMsg struct {
	out     tickOut
	commit  wal.Commit
	errText string // terminal NDJSON error when non-empty
	status  int    // HTTP status for the error if nothing streamed yet
	retry   bool   // the client should reconnect and replay

	// Stage-clock payload, observed by the writer once per input line. A
	// batch line carries it on its LAST row only (the row whose ack
	// completes the line): batchN > 0 marks that row and holds the line's
	// row count; the other rows of the batch leave batchN 0.
	t0          int64 // obs.Now at line receipt
	decNanos    int64 // NDJSON decode
	queueNanos  int64 // shard-queue wait (shard.BatchResponse.QueueNanos)
	engineNanos int64 // engine compute
	appliedAt   int64 // shard op completion; anchors the wal_commit wait
	shard       int   // histogram attribution
	batchN      int
}

func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The stream interleaves reads of the request body with writes of the
	// response; without full duplex the HTTP/1 server would first drain the
	// (still-open) request body before the first write and deadlock against
	// a lock-step client.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError, "full-duplex streaming unsupported: %v", err)
		return
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, maxTickLine) // bufio's 4 KiB, doubling per longer line
	w.Header().Set("Content-Type", "application/x-ndjson")

	// The handler splits into a reader (decode → apply → enqueue) and a
	// writer (wait durable → encode ack), joined by a bounded channel.
	// While row i's group commit is pending, rows i+1… keep flowing into
	// the engine and into the same commit window, so the WAL fsync
	// amortizes over the whole in-flight window instead of serializing the
	// connection at one fsync round-trip per row. Only the writer touches w
	// after the split, so status-code and line ordering stay coherent.
	acks := make(chan *ackMsg, tickInFlight)
	free := make(chan *ackMsg, tickInFlight)
	writerGone := make(chan struct{})
	ackCell := s.ackCell(id)
	streamed := false // the 200 went out; read once writerGone is closed
	go func() {
		defer close(writerGone)
		enc := json.NewEncoder(w)
		var lineBuf []byte
		for msg := range acks {
			if msg.errText == "" {
				if err := msg.commit.Wait(); err != nil {
					// The row is applied in memory but not durable: never
					// ack it. The client replays it after reconnecting.
					msg.errText = fmt.Sprintf("tick %d not durable: %v", msg.out.Seq, err)
					msg.status = http.StatusInternalServerError
					msg.retry = true
				}
			}
			if msg.errText != "" {
				// The reader may be blocked on a client that waits for
				// this reply to end before it sends or closes anything.
				// Wake it: at once before the stream started, and after
				// the second the drain below gives a stream refused
				// mid-body.
				wake := time.Now()
				if !streamed {
					// Keep the retry marker even pre-stream: a durability
					// hiccup on the first row is as recoverable as on any
					// later one, and the client replays on it. Flush
					// explicitly — the handler goroutine is still blocked
					// reading the request body (full duplex), so nothing
					// else pushes the buffered response out until the
					// client gives up. The client may still be sending:
					// close the connection after this reply, or net/http's
					// post-handler body close races its keep-alive read of
					// the next request.
					w.Header().Set("Connection", "close")
					writeJSON(w, msg.status, apiError{Error: msg.errText, Retry: msg.retry})
				} else {
					enc.Encode(apiError{Error: msg.errText, Retry: msg.retry})
					wake = wake.Add(time.Second)
				}
				rc.Flush()
				rc.SetReadDeadline(wake)
				return
			}
			// The durability wait ends here; what follows is the ack write.
			// Under pipelining the measured wal_commit also absorbs time the
			// ack spent queued behind its predecessors — time the client
			// experienced waiting for durability, so the attribution holds.
			var walNanos, ackStart int64
			if msg.batchN > 0 {
				now := obs.Now()
				if walNanos = now - msg.appliedAt; walNanos < 0 {
					walNanos = 0
				}
				ackStart = now
			}
			if !streamed {
				streamed = true
				w.WriteHeader(http.StatusOK)
			}
			// Hot path: append-encode the ack line; json.Encoder (reflection
			// plus a validity re-scan per line) costs a measurable share of a
			// streaming core. Non-finite values (unencodable in JSON) fall
			// back to the encoder for the identical error behavior.
			if out, ok := wire.AppendAck(lineBuf[:0], msg.out.Tick, msg.out.Seq,
				msg.out.Values, msg.out.Imputed, msg.out.Duplicate); ok {
				lineBuf = out
				if _, err := w.Write(lineBuf); err != nil {
					return // client gone
				}
			} else if err := enc.Encode(&msg.out); err != nil {
				return // client gone
			}
			// Flush when the pipeline is drained (a lock-step client gets
			// its ack immediately); while more acks queue behind, let them
			// coalesce into one write.
			if len(acks) == 0 {
				rc.Flush()
			}
			if msg.batchN > 0 {
				s.observeTick(id, msg, walNanos, ackStart, ackCell)
			}
			select {
			case free <- msg:
			default:
			}
		}
	}()

	// send hands msg to the writer, or reports that the writer is gone
	// (terminal error already written, or client disconnected).
	send := func(msg *ackMsg) bool {
		select {
		case acks <- msg:
			return true
		case <-writerGone:
			return false
		}
	}
	fail := func(status int, format string, args ...any) {
		// 503s (drain, shard manager closing) are the recoverable goodbyes:
		// the row was not applied and a reconnect + replay will succeed.
		send(&ackMsg{
			errText: fmt.Sprintf(format, args...),
			status:  status,
			retry:   status == http.StatusServiceUnavailable,
		})
	}

	var (
		rsp shard.BatchResponse
		in  wire.TickIn
		one [1][]float64 // a values line's one-row batch
		eof bool         // the request body was read to its end
	)
reading:
	for {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				fail(http.StatusBadRequest, "reading tick line: %v", err)
			}
			eof = sc.Err() == nil
			break
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		t0 := obs.Now()
		if err := decodeTickLine(line, &in); err != nil {
			fail(http.StatusBadRequest, "decoding tick line: %v", err)
			break
		}
		decNanos := obs.Now() - t0
		shardIdx := s.m.ShardOf(id)
		// A drain (graceful shutdown) terminates the stream before the next
		// row is applied, so every row acked below is covered by the final
		// checkpoint; the client replays from its last acked tick.
		select {
		case <-s.draining:
			fail(http.StatusServiceUnavailable, "server draining; replay from the last acked tick")
			break reading
		default:
		}
		// A values line is a one-row batch: every line is one shard
		// operation and one WAL record, and still one ack line per row — the
		// response stream is the same whether the client batched or not.
		rows, what := in.Rows, "tick batch"
		if !in.HasRows {
			one[0], rows, what = in.Values, one[:], "tick"
		} else if in.HasValues {
			fail(http.StatusBadRequest, "tick line sets both values and rows")
			break
		}
		if err := s.m.TickBatch(r.Context(), id, in.Seq, rows, &rsp); err != nil {
			fail(statusFor(err), "%s: %v", what, err)
			break
		}
		s.tickRows.Add(uint64(len(rows)))
		if in.HasRows {
			s.observeBatch(len(rows))
		}
		for i := range rsp.Rows {
			res := &rsp.Rows[i]
			var msg *ackMsg
			select {
			case msg = <-free:
			default:
				msg = &ackMsg{}
			}
			msg.errText = ""
			msg.commit = rsp.Durable
			msg.out.Tick = res.Tick
			msg.out.Seq = res.Seq
			msg.out.Duplicate = res.Duplicate
			msg.out.Values = append(msg.out.Values[:0], res.Values...)
			msg.out.Imputed = append(msg.out.Imputed[:0], res.Imputed...)
			// The line's last row carries its stage clocks: its ack completes
			// the line, so the end-to-end measurement ends with it.
			msg.batchN = 0
			if i == len(rsp.Rows)-1 {
				msg.t0 = t0
				msg.decNanos = decNanos
				msg.queueNanos = rsp.QueueNanos
				msg.engineNanos = rsp.EngineNanos
				msg.appliedAt = rsp.AppliedAt
				msg.shard = shardIdx
				msg.batchN = len(rows)
			}
			if !send(msg) {
				break reading
			}
		}
	}
	close(acks)
	<-writerGone
	if streamed && !eof {
		// A stream refused mid-body: its client is still sending, and the
		// connection stays open. Consume the rest of the body here, so its
		// end falls inside the handler; otherwise net/http's post-handler
		// body close starts a background read that races its keep-alive
		// read of the next request.
		rc.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, r.Body)
	}
}

// ackCell returns the tenant's last-ack latency cell, creating it on first
// use. The cell outlives connections (it is the /v1/debug/tenants source)
// and is dropped when the tenant is deleted.
func (s *Server) ackCell(id string) *atomic.Int64 {
	if c, ok := s.lastAck.Load(id); ok {
		return c.(*atomic.Int64)
	}
	c, _ := s.lastAck.LoadOrStore(id, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// observeTick records one completed tick line into the per-shard stage and
// end-to-end histograms (always), then decides whether to emit the
// structured trace line: the deterministic 1-in-N sample is advanced
// unconditionally — never short-circuited behind the slow check, or the
// sampler's call count (and with it its determinism) would depend on
// timing — and a tick is traced when it is sampled OR breaches the
// slow-tick threshold.
func (s *Server) observeTick(tenant string, msg *ackMsg, walNanos, ackStart int64, cell *atomic.Int64) {
	now := obs.Now()
	ackNanos := now - ackStart
	e2e := now - msg.t0
	sl := &s.latency[msg.shard]
	sl.stages[obs.StageDecode].Observe(msg.decNanos)
	sl.stages[obs.StageQueue].Observe(msg.queueNanos)
	sl.stages[obs.StageEngine].Observe(msg.engineNanos)
	sl.stages[obs.StageWALCommit].Observe(walNanos)
	sl.stages[obs.StageAck].Observe(ackNanos)
	sl.ack.Observe(e2e)
	cell.Store(e2e)

	sampled := s.sampler.Hit()
	slow := s.slowNanos > 0 && e2e >= s.slowNanos
	if !sampled && !slow {
		return
	}
	reason := "sampled"
	if slow {
		reason = "slow"
	}
	s.traceLines.Add(1)
	s.log.Info("tick trace",
		"reason", reason,
		"tenant", tenant,
		"shard", msg.shard,
		"seq", msg.out.Seq,
		"batch", msg.batchN,
		"total", time.Duration(e2e),
		"decode", time.Duration(msg.decNanos),
		"queue", time.Duration(msg.queueNanos),
		"engine", time.Duration(msg.engineNanos),
		"wal_commit", time.Duration(walNanos),
		"ack", time.Duration(ackNanos),
	)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Serialize to a local temp file on the shard goroutine, then stream the
	// file to the client from the handler goroutine. Writing straight into
	// the ResponseWriter would let one slow client stall the shard loop — and
	// every tenant on that shard — for as long as it pleases; buffering in
	// memory instead would let N concurrent downloads of a large tenant
	// (window bytes ≈ streams × L × 8) multiply the engine's footprint.
	// Local disk is the same cost the checkpoint path already pays.
	f, err := os.CreateTemp("", "tkcm-snap-*")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot of %q: %v", id, err)
		return
	}
	// Unlink the spool immediately (the open fd keeps it readable): the file
	// then cannot outlive the handler no matter how it exits — a client
	// disconnect mid-download, a panic, or the whole process being killed
	// mid-copy all reclaim the space, where a deferred Remove would leak it
	// on a hard kill.
	os.Remove(f.Name())
	defer f.Close()
	if _, err := s.m.Snapshot(r.Context(), id, f); err != nil {
		writeError(w, statusFor(err), "snapshot of %q: %v", id, err)
		return
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot of %q: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".tkcm"))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, f)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.dir == "" {
		writeError(w, http.StatusPreconditionFailed, "no checkpoint directory configured")
		return
	}
	n, err := s.CheckpointAll(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": n})
}
