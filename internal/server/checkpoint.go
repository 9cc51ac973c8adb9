package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/durable"
	"tkcm/internal/shard"
)

// checkpointExt is the on-disk suffix of tenant snapshots: <dir>/<id>.tkcm.
const checkpointExt = ".tkcm"

// CheckpointAll snapshots every hosted tenant into the checkpoint directory,
// one atomically-renamed file per tenant. It returns how many tenants were
// written; on partial failure it keeps going and returns the first error
// alongside the successful count.
func (s *Server) CheckpointAll(ctx context.Context) (int, error) {
	if s.dir == "" {
		return 0, errors.New("server: no checkpoint directory configured")
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return 0, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	infos, err := s.m.Tenants(ctx)
	if err != nil {
		return 0, err
	}
	var firstErr error
	n := 0
	for _, info := range infos {
		// A parked tenant's engine was evicted: its checkpoint plus WAL tail
		// already hold everything it has ever acked, frozen at the sequence it
		// parked with. Snapshotting it would force a hydration just to rewrite
		// bytes that cannot have changed — skip it (prune below still sees it
		// as hosted, so its files stay).
		if !info.Resident {
			continue
		}
		if err := s.checkpointTenant(ctx, info.ID); err != nil {
			s.checkpointErrs.Add(1)
			s.log.Error("checkpoint failed", "tenant", info.ID, "err", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.checkpoints.Add(1)
		n++
	}
	s.pruneCheckpoints(infos)
	return n, firstErr
}

// pruneCheckpoints removes snapshot files whose tenant is no longer hosted —
// a backstop against stray files (manual copies, a removal that failed and
// was only logged) feeding RestoreFromCheckpoints. It cannot repair a crash
// that lands between the engine delete and the file removal: that delete was
// never acknowledged, and the restart legitimately re-hosts the tenant.
// Safe under ckMu: only CheckpointAll writes these files, and a tenant
// created after the listing cannot have one yet.
func (s *Server) pruneCheckpoints(infos []shard.TenantInfo) {
	hosted := make(map[string]bool, len(infos))
	for _, info := range infos {
		hosted[info.ID] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		// Real checkpoints first: ".tmp-" may legally appear inside a tenant
		// id, but temp names end in random digits, never in the .tkcm suffix.
		if strings.HasSuffix(name, checkpointExt) {
			if id := strings.TrimSuffix(name, checkpointExt); !hosted[id] {
				if rerr := os.Remove(filepath.Join(s.dir, name)); rerr == nil {
					s.log.Info("pruned checkpoint of unhosted tenant", "tenant", id)
				}
			}
			continue
		}
		// Routing-table temps ("routing.tkcmrt.tmp-*", or "routing-*.tmp"
		// from older builds) go only once an hour old, so they are told apart
		// before the checkpoint-temp rule below: Manager.Delete saves the
		// table outside ckMu, and unlinking the temp of a save in flight
		// would fail its rename and silently drop the route change.
		if strings.HasPrefix(name, "routing.tkcmrt.tmp-") || strings.HasPrefix(name, "routing-") && strings.HasSuffix(name, ".tmp") {
			if info, err := ent.Info(); err == nil && time.Since(info.ModTime()) > time.Hour {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		// Temp files from a checkpointTenant that crashed mid-write are stale
		// by construction here: only CheckpointAll creates them, and it holds
		// ckMu.
		if strings.Contains(name, ".tmp-") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	// Same backstop for write-ahead logs: a log whose tenant is no longer
	// hosted would only warn forever at the next restore.
	if s.wal != nil {
		ids, err := s.wal.Tenants()
		if err != nil {
			return
		}
		for _, id := range ids {
			if !hosted[id] {
				if err := s.wal.Remove(id); err == nil {
					s.log.Info("pruned write-ahead log of unhosted tenant", "tenant", id)
				}
			}
		}
	}
}

// removeCheckpoint deletes tenant id's snapshot file so the tenant stays
// deleted across restarts. Callers must hold ckMu (alongside the engine
// delete) to keep an in-flight CheckpointAll from re-creating the file. A
// missing file (never checkpointed, or no checkpoint directory) is not an
// error.
func (s *Server) removeCheckpoint(id string) error {
	if s.dir == "" {
		return nil
	}
	err := os.Remove(filepath.Join(s.dir, id+checkpointExt))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// checkpointTenant writes one tenant's snapshot with durable.Replace, so a
// crash mid-write never clobbers the previous good checkpoint. Only once the
// replace is durable is the tenant's write-ahead log truncated up to the
// sequence number the snapshot covers: otherwise a power loss could persist
// the truncation's unlinks but not the rename, leaving the old checkpoint
// with the records between the two checkpoints deleted.
func (s *Server) checkpointTenant(ctx context.Context, id string) error {
	var seq uint64
	if err := durable.Replace(durable.OS{}, s.dir, id+checkpointExt, func(w io.Writer) error {
		var err error
		seq, err = s.m.Snapshot(ctx, id, w)
		return err
	}); err != nil {
		return err
	}
	if s.wal != nil {
		// Best-effort: a failed truncation costs disk space, not
		// correctness — replay skips records the checkpoint already covers.
		if err := s.wal.Truncate(id, seq); err != nil {
			s.log.Warn("wal truncation after checkpoint", "tenant", id, "seq", seq, "err", err)
		}
	}
	return nil
}

// RestoreFromCheckpoints scans the checkpoint directory and re-hosts every
// saved tenant (file <id>.tkcm → tenant id), replaying its write-ahead log
// on top of the snapshot when a WAL is configured — together they restore
// every acknowledged tick, including everything since the last checkpoint.
// Returns how many tenants were restored. A tenant that already exists
// (e.g. hot-restart overlap) is skipped; an unreadable snapshot or corrupt
// log aborts with an error, since silently serving a fresh engine under a
// tenant id that has durable state would be data loss.
func (s *Server) RestoreFromCheckpoints(ctx context.Context) (int, error) {
	if s.dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		entries = nil
	} else if err != nil {
		return 0, fmt.Errorf("server: reading checkpoint dir: %w", err)
	}
	n := 0
	restored := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, checkpointExt) {
			continue
		}
		id := strings.TrimSuffix(name, checkpointExt)
		if !tenantIDPattern.MatchString(id) {
			s.log.Warn("skipping checkpoint with invalid tenant id", "file", name)
			continue
		}
		eng, err := core.RestoreEngineFile(filepath.Join(s.dir, name))
		if err != nil {
			return n, fmt.Errorf("server: restoring tenant %q: %w", id, err)
		}
		imageSeq := eng.Seq()
		if err := s.m.Attach(ctx, id, eng); err != nil {
			eng.Close()
			if errors.Is(err, shard.ErrTenantExists) {
				continue
			}
			return n, fmt.Errorf("server: restoring tenant %q: %w", id, err)
		}
		restored[id] = true
		s.log.Info("tenant restored", "tenant", id, "ticks", eng.Stats.Ticks, "wal_replayed", eng.Seq()-imageSeq)
		n++
	}
	// A log directory without a checkpoint should be impossible (tenant
	// creation writes the base image before acking) — if one exists anyway,
	// refuse to silently discard it but don't host a tenant we have no
	// config for.
	if s.wal != nil {
		ids, err := s.wal.Tenants()
		if err != nil {
			return n, err
		}
		for _, id := range ids {
			if !restored[id] {
				s.log.Warn("write-ahead log has no matching checkpoint; not restored", "tenant", id)
			}
		}
	}
	return n, nil
}

// CheckpointHydrator adapts a checkpoint directory into the restore hook the
// residency tier needs (shard.Options.Hydrate): it rebuilds a parked tenant's
// engine from <dir>/<id>.tkcm, memory-mapping the window region where the
// platform and snapshot layout allow so hydration cost is page faults, not an
// up-front read of the whole image. The shard manager replays the WAL tail on
// top and enforces the parked sequence number itself.
//
// It is a free function, not a method: the hook must exist before the shard
// manager does, and the manager before the Server — pass the same directory
// here and in Options.CheckpointDir.
func CheckpointHydrator(dir string) func(id string) (*core.Engine, error) {
	return func(id string) (*core.Engine, error) {
		return core.RestoreEngineFile(filepath.Join(dir, id+checkpointExt))
	}
}

// CheckpointParkable is the eviction veto that pairs with CheckpointHydrator
// (shard.Options.Parkable): a tenant may only park once its checkpoint file
// exists. It closes the create-time race — a tenant is hosted the moment
// Manager.Create returns, but its base image lands on disk a beat later; an
// eviction in that window would park a tenant hydration cannot rebuild.
func CheckpointParkable(dir string) func(id string) bool {
	return func(id string) bool {
		_, err := os.Stat(filepath.Join(dir, id+checkpointExt))
		return err == nil
	}
}

// StartCheckpointLoop launches the periodic checkpointer (no-op without a
// checkpoint directory). Stop it via Shutdown.
func (s *Server) StartCheckpointLoop() {
	if s.dir == "" {
		return
	}
	s.ckWG.Add(1)
	go func() {
		defer s.ckWG.Done()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopCk:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), s.interval)
				n, err := s.CheckpointAll(ctx)
				cancel()
				if err != nil {
					s.log.Error("periodic checkpoint", "written", n, "err", err)
				} else {
					s.log.Debug("periodic checkpoint", "written", n)
				}
			}
		}
	}()
}

// BeginDrain tells every long-lived tick stream to terminate before its
// next row (with an NDJSON error line instructing the client to replay from
// its last acked tick). Call it before http.Server.Shutdown so streaming
// connections end promptly and every acked row precedes the final
// checkpoint. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Shutdown finishes the serving subsystem: it begins the drain (if
// BeginDrain wasn't already called), stops the checkpoint loop, takes a
// final checkpoint of every tenant (call it after the HTTP server has
// drained, so in-flight ticks are already applied), and closes the shard
// manager, which drains its queues and closes every engine. Idempotent:
// later calls return the first call's outcome. Pass a live ctx — an
// already-expired one would make the final checkpoint fail.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.BeginDrain()
		s.StopFollower()
		s.stopOnce.Do(func() { close(s.stopCk) })
		s.ckWG.Wait()
		if s.dir != "" {
			n, err := s.CheckpointAll(ctx)
			if err != nil {
				s.log.Error("final checkpoint", "written", n, "err", err)
				s.shutErr = err
			} else {
				s.log.Info("final checkpoint", "written", n)
			}
		}
		s.m.Close()
	})
	return s.shutErr
}
