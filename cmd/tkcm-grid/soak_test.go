package main

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tkcm/client"
	"tkcm/internal/experiments"
	"tkcm/internal/obs"
	"tkcm/internal/server"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// TestServingSoak drives the whole serving stack in process — WAL with group
// commit, 2 shards, a 2-engine residency cap, the checkpoint loop and the
// rebalancer — through the public client with the SLO sweeps' driveSweep,
// while a migration walks a tenant to another shard every 250ms. The 8 tenants send
// in 1/(i+1) of their slots (Zipf exponent 1): hot tenants append again and
// again between the cold ones' hydrations, the interleaving that exposes a
// WAL frame lost under eviction. driveSweep fails on any stream or migration
// error (the sequenced client errors on an out-of-order ack), on zero ticks
// and on zero migrations; the cap must also have forced hydrations, timed
// by tkcm_hydration_seconds.
func TestServingSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("3s of load on the serving stack")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	walMgr := wal.NewManager(filepath.Join(dir, "wal"), wal.Options{SyncInterval: time.Millisecond})
	defer walMgr.Close()
	m := shard.New(shard.Options{
		Shards:          2,
		WAL:             walMgr,
		ResidentEngines: 2,
		Hydrate:         server.CheckpointHydrator(ckDir),
		Parkable:        server.CheckpointParkable(ckDir),
	})
	srv := server.New(server.Options{
		Manager:            m,
		CheckpointDir:      ckDir,
		CheckpointInterval: 300 * time.Millisecond,
		RebalanceInterval:  200 * time.Millisecond,
		WAL:                walMgr,
		Log:                slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	srv.StartCheckpointLoop()
	srv.StartRebalancer()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		srv.BeginDrain()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := client.New(ts.URL)
	sw := experiments.SLOSweep{Name: "soak", Shards: 2, Tenants: 8, Width: 4, Batch: 16, Missing: 0.1}
	shares := make([]float64, sw.Tenants)
	for i := range shares {
		shares[i] = 1 / float64(i+1)
	}
	var res sloResult
	if err := driveSweep(ctx, c, sw, 3*time.Second, 250*time.Millisecond, shares, &res); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	var hydrations float64
	for _, smp := range sc.Samples {
		if smp.Name == "tkcm_engine_hydrations_total" && smp.Labels == "" {
			hydrations = smp.Value
		}
	}
	hydrateP99 := sc.StageQuantile("tkcm_hydration_seconds", 0.99, nil)
	t.Logf("%d ticks (%.0f/s), %d migrations, %.0f hydrations (p99 %.3fms)",
		res.Ticks, res.TicksPerSec, res.Migrations, hydrations, hydrateP99*1e3)
	if hydrations == 0 {
		t.Fatal("8 tenants over a 2-engine cap forced no hydrations")
	}
	if !(hydrateP99 > 0) {
		t.Fatalf("hydration p99 %v: tkcm_hydration_seconds observed nothing", hydrateP99)
	}
}
