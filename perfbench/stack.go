package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tkcm/client"
	"tkcm/internal/obs"
	"tkcm/internal/server"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// Serving defaults, the same as tkcm-serve's flags.
const (
	walSync       = 2 * time.Millisecond
	walSegment    = 64 << 20
	shardQueueLen = 64
	numShards     = 2
	maxConns      = 2 // tick-stream connections the benchmark ever holds at once
)

// stack is the real serving stack hosted in this process: server.New over
// shard.New and wal.NewManager, served on a loopback ephemeral port, and a
// client bound to it.
type stack struct {
	dir    string
	walMgr *wal.Manager
	mgr    *shard.Manager
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	tr     *http.Transport
	cl     *client.Client
}

// startStack boots the stack with its durable state in a fresh directory
// under workdir. ckEvery > 0 starts the periodic checkpoint loop; resident >
// 0 enables the residency tier exactly as tkcm-serve wires it.
func startStack(workdir string, w *workload, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "stack-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	ckDir := filepath.Join(dir, "checkpoints")
	s.walMgr = wal.NewManager(filepath.Join(dir, "wal"), wal.Options{SyncInterval: walSync, SegmentBytes: walSegment})
	opts := shard.Options{Shards: numShards, QueueLen: shardQueueLen, WAL: s.walMgr}
	if w.resident > 0 {
		opts.Hydrate = server.CheckpointHydrator(ckDir)
		opts.Parkable = server.CheckpointParkable(ckDir)
		opts.ResidentEngines = w.resident
	}
	s.mgr = shard.New(opts)
	ckEvery := w.checkpoint
	if ckEvery <= 0 {
		ckEvery = time.Hour // no periodic checkpoint inside a run
	}
	s.srv = server.New(server.Options{
		Manager:            s.mgr,
		CheckpointDir:      ckDir,
		CheckpointInterval: ckEvery,
		WAL:                s.walMgr,
		Log:                slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if w.checkpoint > 0 {
		s.srv.StartCheckpointLoop()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	s.hs = &http.Server{Handler: h, ErrorLog: nil}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.tr = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	s.cl = client.New(s.url, client.WithHTTPClient(&http.Client{Transport: s.tr}))
	return s, nil
}

// close drains and closes everything startStack opened, in tkcm-serve's
// shutdown order, then removes the stack's directory. It is bounded in time
// and safe to call on a partly started stack and more than once.
func (s *stack) close() error {
	var errs []error
	if s.hs != nil {
		s.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		s.hs = nil
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
		s.tr = nil
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
		cancel()
		s.srv = nil
	} else if s.mgr != nil {
		s.mgr.Close()
	}
	s.mgr = nil
	if s.walMgr != nil {
		if err := s.walMgr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("wal close: %w", err))
		}
		s.walMgr = nil
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			errs = append(errs, err)
		}
		s.dir = ""
	}
	return errors.Join(errs...)
}

// scrape reads the server's own /metrics through its handler, in process.
func (s *stack) scrape() (*obs.Scrape, error) {
	rec := &captureWriter{header: http.Header{}}
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	s.srv.Handler().ServeHTTP(rec, req)
	return obs.ParseProm(rec.body.String())
}

// captureWriter is a minimal in-memory ResponseWriter for in-process reads.
type captureWriter struct {
	header http.Header
	body   strings.Builder
}

func (c *captureWriter) Header() http.Header         { return c.header }
func (c *captureWriter) WriteHeader(int)             {}
func (c *captureWriter) Write(p []byte) (int, error) { return c.body.Write(p) }

// counters are the server-side totals the benchmark cross-checks.
type counters struct {
	StageSum   map[string]float64 `json:"stage_sum_s"`
	StageCount map[string]float64 `json:"stage_count"`
	TickRows   float64            `json:"tick_rows"`
	Batched    float64            `json:"batched_rows"`
	BatchLines float64            `json:"batch_lines"`
	WALAppends float64            `json:"wal_appends"`
	WALSyncs   float64            `json:"wal_syncs"`
	WALBytes   float64            `json:"wal_bytes"`
	Hydrations float64            `json:"hydrations"`
	Evictions  float64            `json:"evictions"`
	Failed     float64            `json:"failed_engines"`
	FailedWAL  float64            `json:"failed_wal_logs"`
	// AckBuckets is the server's own end-to-end (decode to ack write)
	// histogram, cumulative count by upper bound, summed over shards.
	AckBuckets map[float64]float64 `json:"-"`
}

// ackQuantile is the server-side q-quantile of the ack histogram in ms.
func (c counters) ackQuantile(q float64) float64 {
	les := make([]float64, 0, len(c.AckBuckets))
	for le := range c.AckBuckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	cums := make([]uint64, len(les))
	for i, le := range les {
		cums[i] = uint64(c.AckBuckets[le])
	}
	return 1e3 * obs.Quantile(q, les, cums)
}

func readCounters(sc *obs.Scrape) counters {
	c := counters{StageSum: map[string]float64{}, StageCount: map[string]float64{}, AckBuckets: map[float64]float64{}}
	for _, smp := range sc.Samples {
		switch smp.Name {
		case "tkcm_ack_seconds_bucket":
			le, err := strconv.ParseFloat(strings.TrimPrefix(smp.LabelMap["le"], "+"), 64)
			if err == nil {
				c.AckBuckets[le] += smp.Value
			}
		case "tkcm_tick_stage_seconds_sum":
			c.StageSum[smp.LabelMap["stage"]] += smp.Value
		case "tkcm_tick_stage_seconds_count":
			c.StageCount[smp.LabelMap["stage"]] += smp.Value
		case "tkcm_tick_rows_total":
			c.TickRows = smp.Value
		case "tkcm_ticks_batched_total":
			c.Batched = smp.Value
		case "tkcm_tick_batch_size_count":
			c.BatchLines = smp.Value
		case "tkcm_wal_appends_total":
			c.WALAppends = smp.Value
		case "tkcm_wal_syncs_total":
			c.WALSyncs = smp.Value
		case "tkcm_wal_bytes_total":
			c.WALBytes = smp.Value
		case "tkcm_engine_hydrations_total":
			c.Hydrations = smp.Value
		case "tkcm_engine_evictions_total":
			c.Evictions = smp.Value
		case "tkcm_engines_failed":
			c.Failed = smp.Value
		case "tkcm_wal_failed_logs":
			c.FailedWAL = smp.Value
		}
	}
	return c
}

// sub returns c − prev for every counter (the activity of one phase).
func (c counters) sub(prev counters) counters {
	d := c
	d.StageSum = map[string]float64{}
	d.StageCount = map[string]float64{}
	d.AckBuckets = map[float64]float64{}
	for k, v := range c.AckBuckets {
		d.AckBuckets[k] = v - prev.AckBuckets[k]
	}
	for k, v := range c.StageSum {
		d.StageSum[k] = v - prev.StageSum[k]
	}
	for k, v := range c.StageCount {
		d.StageCount[k] = v - prev.StageCount[k]
	}
	d.TickRows -= prev.TickRows
	d.Batched -= prev.Batched
	d.BatchLines -= prev.BatchLines
	d.WALAppends -= prev.WALAppends
	d.WALSyncs -= prev.WALSyncs
	d.WALBytes -= prev.WALBytes
	d.Hydrations -= prev.Hydrations
	d.Evictions -= prev.Evictions
	return d
}
