package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tkcm/internal/durable"
	"tkcm/internal/wal"
)

// Follower mode: the server starts with no hosted tenants and pulls the
// primary's replication manifest every FollowInterval, mirroring checkpoints
// and WAL segments into its own data directories — every byte verified
// (manifest HMAC, then wal.Replica's Merkle/chain/HMAC checks, then the
// checkpoint digest) before it is fsynced. Until promoted, every API route
// except health, metrics and promotion answers 503, so a misconfigured
// client cannot write to a replica. Promote (POST /v1/promote, or SIGHUP in
// cmd/tkcm-serve) stops the puller, restores every replicated tenant, and
// starts the normal primary duties; a failed promotion is retryable.

// maxReplFetch bounds one replication response body (a segment delta, a
// checkpoint, or the manifest). Segments rotate at tens of MiB, far below.
const maxReplFetch = 1 << 30

// followerAllowed reports whether a route is served while unpromoted.
func (s *Server) followerAllowed(path string) bool {
	return path == "/healthz" || path == "/metrics" || path == "/v1/promote"
}

// StartFollower launches the replication puller. No-op unless the server
// was configured with Options.FollowURL.
func (s *Server) StartFollower() {
	if !s.follower {
		return
	}
	s.followWG.Add(1)
	go func() {
		defer s.followWG.Done()
		t := time.NewTicker(s.followEvery)
		defer t.Stop()
		for {
			// Round first, then wait: a fresh follower starts converging
			// immediately instead of idling a full interval.
			if err := s.followRound(); err != nil {
				s.replErrors.Add(1)
				s.log.Warn("replication round failed", "primary", s.followURL, "err", err)
			}
			select {
			case <-s.stopFollow:
				return
			case <-t.C:
			}
		}
	}()
}

// Promote turns the follower into a primary: stop pulling, restore every
// replicated tenant from its checkpoint + verified WAL, then start the
// checkpoint loop and rebalancer. Serialized and retryable — if the restore
// fails (e.g. a tenant synced mid-divergence), the server stays an
// unpromoted follower whose next Promote tries again. Promoting a server
// that was never a follower is an error; promoting twice is a no-op.
func (s *Server) Promote(ctx context.Context) error {
	if !s.follower {
		return fmt.Errorf("server: not a follower")
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.promoted.Load() {
		return nil
	}
	s.stopFollowOnce.Do(func() { close(s.stopFollow) })
	s.followWG.Wait()
	n, err := s.RestoreFromCheckpoints(ctx)
	if err != nil {
		return fmt.Errorf("server: promote: %w", err)
	}
	s.StartCheckpointLoop()
	s.StartRebalancer()
	s.promoted.Store(true)
	s.log.Info("promoted to primary", "tenants", n)
	return nil
}

// StopFollower halts the puller without promoting (shutdown path).
func (s *Server) StopFollower() {
	if !s.follower {
		return
	}
	s.stopFollowOnce.Do(func() { close(s.stopFollow) })
	s.followWG.Wait()
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.follower {
		writeError(w, http.StatusPreconditionFailed, "not a follower (-follow was not set)")
		return
	}
	already := s.promoted.Load()
	// The restore must outlive an impatient client: aborting halfway would
	// leave some tenants hosted and some not, pointlessly.
	if err := s.Promote(context.WithoutCancel(r.Context())); err != nil {
		writeError(w, http.StatusInternalServerError, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "already": already})
}

// followRound pulls one manifest and converges the local directories to it.
// Per-tenant failures are logged and counted but do not abort the round —
// one diverged tenant must not stall replication of the rest.
func (s *Server) followRound() error {
	raw, err := s.replGet(s.followURL + "/v1/replication/manifest")
	if err != nil {
		return err
	}
	var m replManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("decoding manifest: %v", err)
	}
	if err := verifyManifestMAC(s.wal.Key(), &m); err != nil {
		return err
	}
	var body replBody
	if err := json.Unmarshal(m.Body, &body); err != nil {
		return fmt.Errorf("decoding manifest body: %v", err)
	}
	seen := make(map[string]bool, len(body.Tenants))
	for _, t := range body.Tenants {
		if !tenantIDPattern.MatchString(t.ID) {
			return fmt.Errorf("manifest names invalid tenant id %q", t.ID)
		}
		seen[t.ID] = true
		if t.Failed {
			continue // fail-stopped on the primary; keep our copy as-is
		}
		if err := s.syncTenant(t); err != nil {
			s.replErrors.Add(1)
			s.log.Warn("tenant replication failed", "tenant", t.ID, "err", err)
		}
	}
	s.pruneReplicated(seen)
	s.replRounds.Add(1)
	s.lastManifestNano.Store(body.GeneratedUnixNano)
	return nil
}

// syncTenant converges one tenant. Checkpoint BEFORE WAL: the manifest's
// head may raise the chain base past records only its (equally new)
// checkpoint covers, so installing the head first and crashing would leave
// a hole neither file fills. Checkpoint-ahead-of-WAL is always safe — the
// restore path tolerates a checkpoint newer than the log.
func (s *Server) syncTenant(t replTenant) error {
	if t.Checkpoint != nil {
		if err := s.syncCheckpointFile(t.ID, t.Checkpoint); err != nil {
			return err
		}
	}
	if len(t.Head) == 0 {
		return nil
	}
	rep := s.replicas[t.ID]
	if rep == nil {
		rep = wal.NewReplica(filepath.Join(s.wal.Root(), t.ID), s.wal.Key())
		s.replicas[t.ID] = rep
	}
	segs := make([]wal.SegmentInfo, len(t.Segments))
	for i, sg := range t.Segments {
		segs[i] = wal.SegmentInfo{Name: sg.Name, FirstSeq: sg.FirstSeq, LastSeq: sg.LastSeq,
			Size: sg.Size, Sealed: sg.Sealed, Root: sg.Root}
	}
	st, err := rep.Sync(t.Head, segs, func(name string, from int64) ([]byte, error) {
		return s.replGet(fmt.Sprintf("%s/v1/replication/segment/%s/%s?from=%d",
			s.followURL, url.PathEscape(t.ID), name, from))
	})
	s.replSegmentsCtr.Add(uint64(st.SegmentsFetched))
	s.replBytesCtr.Add(uint64(st.BytesFetched))
	return err
}

// syncCheckpointFile fetches the tenant's checkpoint when the local copy's
// digest differs, verifying the digest while spooling and installing with
// durable.Replace, like every checkpoint write.
func (s *Server) syncCheckpointFile(id string, want *replFile) error {
	name := id + checkpointExt
	path := filepath.Join(s.dir, name)
	if fi, err := os.Stat(path); err == nil && fi.Size() == want.Size {
		s.ckHashMu.Lock()
		ent, ok := s.ckHashes[name]
		s.ckHashMu.Unlock()
		if !ok || ent.size != fi.Size() || !ent.mtime.Equal(fi.ModTime()) {
			if sum, herr := fileSHA256(path); herr == nil {
				ent = ckHashEntry{size: fi.Size(), mtime: fi.ModTime(), sum: sum}
				s.ckHashMu.Lock()
				s.ckHashes[name] = ent
				s.ckHashMu.Unlock()
				ok = true
			}
		}
		if ok && ent.sum == want.SHA256 {
			return nil
		}
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	resp, err := s.replClient.Get(s.followURL + "/v1/replication/checkpoint/" + url.PathEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching checkpoint: %s", replErrorOf(resp))
	}
	if err := durable.Replace(durable.OS{}, s.dir, name, func(w io.Writer) error {
		h := sha256.New()
		if _, err := io.Copy(io.MultiWriter(w, h), io.LimitReader(resp.Body, maxReplFetch)); err != nil {
			return err
		}
		if hex.EncodeToString(h.Sum(nil)) != want.SHA256 {
			// The primary checkpointed between manifest and fetch; the next
			// round's manifest will carry the digest of what we just saw.
			return fmt.Errorf("checkpoint of %q changed mid-fetch (digest mismatch)", id)
		}
		return nil
	}); err != nil {
		return err
	}
	if fi, serr := os.Stat(path); serr == nil {
		s.ckHashMu.Lock()
		s.ckHashes[name] = ckHashEntry{size: fi.Size(), mtime: fi.ModTime(), sum: want.SHA256}
		s.ckHashMu.Unlock()
	}
	return nil
}

// pruneReplicated removes local checkpoints and WAL directories of tenants
// the manifest no longer names — deleted on the primary, so deleted here.
// Tenants that merely failed to sync this round stay (they are in seen).
func (s *Server) pruneReplicated(seen map[string]bool) {
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, checkpointExt) {
				continue
			}
			if id := strings.TrimSuffix(name, checkpointExt); !seen[id] {
				if err := os.Remove(filepath.Join(s.dir, name)); err == nil {
					s.log.Info("pruned checkpoint of deleted tenant", "tenant", id)
				}
			}
		}
	}
	if entries, err := os.ReadDir(s.wal.Root()); err == nil {
		for _, ent := range entries {
			if !ent.IsDir() || seen[ent.Name()] {
				continue
			}
			if err := os.RemoveAll(filepath.Join(s.wal.Root(), ent.Name())); err == nil {
				s.log.Info("pruned write-ahead log of deleted tenant", "tenant", ent.Name())
				delete(s.replicas, ent.Name())
			}
		}
	}
}

// replGet fetches one replication URL into memory (bounded).
func (s *Server) replGet(u string) ([]byte, error) {
	resp, err := s.replClient.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, replErrorOf(resp))
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxReplFetch))
}

// replErrorOf condenses an error response into one log-friendly line.
func replErrorOf(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, ae.Error)
	}
	return resp.Status
}
