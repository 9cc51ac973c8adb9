// Package audit is the offline integrity auditor behind tkcm-verify: it
// proves, from a server's data directories alone, the highest sequence
// number each tenant can be restored through — checkpoint CRC, WAL Merkle
// roots, chain continuity, sequence contiguity, and the cross-check that
// every range missing from the WAL (truncated or jumped) is covered by the
// checkpoint. It lives outside cmd/ so the chaos tests can audit a
// kill -9'd server's directories in-process.
package audit

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tkcm/internal/core"
	"tkcm/internal/wal"
)

// checkpointExt mirrors the server's checkpoint file suffix (<id>.tkcm).
const checkpointExt = ".tkcm"

// TenantReport is one tenant's successful audit.
type TenantReport struct {
	Tenant string
	// DurableThrough is the provable restore bound: every tick 1..S is
	// recoverable from the checkpoint plus the verified WAL.
	DurableThrough uint64
	HasCheckpoint  bool
	CheckpointSeq  uint64
	WAL            *wal.VerifyReport
}

// Result pairs a tenant with its audit outcome; Err is nil on a clean pass.
type Result struct {
	Tenant string
	Report *TenantReport
	Err    error
}

// Tenant audits one tenant. ckDir and walRoot are the server's
// -checkpoint-dir and -wal-dir; either may be "" when that subsystem is not
// configured. key verifies the WAL's HMACs (nil = integrity only).
func Tenant(ckDir, walRoot, tenant string, key []byte) (*TenantReport, error) {
	rep := &TenantReport{Tenant: tenant}
	if ckDir != "" {
		path := filepath.Join(ckDir, tenant+checkpointExt)
		eng, err := core.RestoreEngineFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet — fine as long as the WAL is whole from seq 1.
		case err != nil:
			return nil, fmt.Errorf("checkpoint %s: %v", path, err)
		default:
			rep.HasCheckpoint = true
			rep.CheckpointSeq = eng.Seq()
			eng.Close()
		}
	}
	wrep := &wal.VerifyReport{Tenant: tenant}
	if walRoot != "" {
		var err error
		wrep, err = wal.VerifyTenant(filepath.Join(walRoot, tenant), key)
		if err != nil {
			return nil, err
		}
	}
	rep.WAL = wrep
	// Cross-coverage: every sequence range the WAL no longer holds must be
	// inside the checkpoint, or the history has a hole no restore can fill.
	if wrep.Retired > rep.CheckpointSeq {
		return nil, fmt.Errorf("records 1..%d were truncated from the WAL but the checkpoint covers only seq %d",
			wrep.Retired, rep.CheckpointSeq)
	}
	for _, g := range wrep.Gaps {
		if g.To > rep.CheckpointSeq {
			return nil, fmt.Errorf("records %d..%d are in no checkpoint and missing from the WAL", g.From, g.To)
		}
	}
	rep.DurableThrough = wrep.DurableThrough
	if rep.CheckpointSeq > rep.DurableThrough {
		rep.DurableThrough = rep.CheckpointSeq
	}
	return rep, nil
}

// All audits every tenant found in either directory, sorted by tenant id.
func All(ckDir, walRoot string, key []byte) ([]Result, error) {
	ids := map[string]bool{}
	if ckDir != "" {
		entries, err := os.ReadDir(ckDir)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("audit: %w", err)
		}
		for _, ent := range entries {
			name := ent.Name()
			if !ent.IsDir() && strings.HasSuffix(name, checkpointExt) {
				ids[strings.TrimSuffix(name, checkpointExt)] = true
			}
		}
	}
	if walRoot != "" {
		entries, err := os.ReadDir(walRoot)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("audit: %w", err)
		}
		for _, ent := range entries {
			if ent.IsDir() {
				ids[ent.Name()] = true
			}
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	results := make([]Result, 0, len(sorted))
	for _, id := range sorted {
		rep, err := Tenant(ckDir, walRoot, id, key)
		results = append(results, Result{Tenant: id, Report: rep, Err: err})
	}
	return results, nil
}
